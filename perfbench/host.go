package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	af "repro"
)

// hostMain is the benchmark-owned HTTP host for the hot-http workload:
// the public activefriending.Server behind its own Handler (the same
// httpapi + Dispatcher stack afserve serves), on a loopback port it
// prints as "ready <base URL>". Untraced it serves /v1/query only, with
// server metrics off; traced it turns ServerConfig.Metrics on, serves
// /metrics, and records a span around every Handler.ServeHTTP call,
// exposed as "<sum ns> <count>" at /bench/serve.
func hostMain(args []string) error {
	fs := flag.NewFlagSet("host", flag.ContinueOnError)
	maxBytes := fs.Int64("maxbytes", 0, "pool memory budget in bytes (0 = unlimited)")
	traced := fs.Bool("traced", false, "enable server metrics, /metrics and the ServeHTTP span")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := af.GenerateDataset(graphDataset, graphScale, graphSeed)
	if err != nil {
		return err
	}
	sv := af.NewServer(g, af.ServerConfig{
		Seed:         graphSeed,
		MaxPoolBytes: *maxBytes,
		MaxInflight:  inflight,
		MaxQueue:     queueLimit,
		Metrics:      *traced,
	})
	mux := http.NewServeMux()
	h := sv.Handler()
	if *traced {
		var spanNs, spans atomic.Int64
		mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			spanNs.Add(time.Since(start).Nanoseconds())
			spans.Add(1)
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			_ = sv.WriteMetrics(w) // a broken scrape surfaces as a parse error on the client
		})
		mux.HandleFunc("/bench/serve", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "%d %d\n", spanNs.Load(), spans.Load())
		})
	} else {
		mux.Handle("/v1/query", h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("ready http://%s\n", ln.Addr())
	return http.Serve(ln, mux)
}
