package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The graph every workload serves: the Youtube analog (the paper's
// sparse social network) at scale 0.05 — 56,744 nodes, 299,048 edges —
// generated from a fixed graph seed, which is also the server seed.
const (
	graphDataset = "Youtube"
	graphScale   = 0.05
	graphSeed    = 1
	// inflight is the admission limit (afserve -j, the host's
	// MaxInflight) and the generator's connection and client count: the
	// host has 2 CPUs, and the generator uses no more than that.
	inflight   = 2
	queueLimit = 16
)

// binaries locates the two programs run.sh builds.
type binaries struct {
	afserve string // cmd/afserve
	self    string // this benchmark, re-executed as the HTTP host
}

// server is one running server process and the transport that drives it.
type server struct {
	p        *proc
	pid      int
	t        transport
	scraper  *http.Client
	metrics  string // /metrics URL, empty when untraced
	serveURL string // HTTP host only: ServeHTTP span totals
	started  time.Time
}

type serverOpts struct {
	traced   bool
	maxBytes int64
	spillDir string
}

// startServer launches the workload's server and blocks until it answers:
// afserve on the pipe (ready when a stats request is answered), or the
// benchmark-owned HTTP host (ready when it prints its address).
func startServer(b binaries, transportName string, o serverOpts) (*server, error) {
	if transportName == "http" {
		return startHost(b, o)
	}
	args := []string{
		"-dataset", graphDataset, "-scale", strconv.FormatFloat(graphScale, 'g', -1, 64),
		"-seed", strconv.Itoa(graphSeed),
		"-j", strconv.Itoa(inflight), "-queue", strconv.Itoa(queueLimit),
		"-maxbytes", strconv.FormatInt(o.maxBytes, 10),
	}
	if o.spillDir != "" {
		args = append(args, "-spill-dir", o.spillDir)
	}
	sv := &server{}
	if o.traced {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args = append(args, "-metrics-addr", addr)
		sv.metrics = "http://" + addr + "/metrics"
		sv.scraper = newHTTPClient(1)
	}
	cmd := niced(b.afserve, args...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	sv.started = time.Now()
	p, err := startProc(cmd)
	if err != nil {
		return nil, err
	}
	pt := newPipeTransport(stdin, stdout)
	p.reader = pt
	sv.p, sv.pid, sv.t = p, cmd.Process.Pid, pt
	if _, _, err := pt.call(-1, []byte(`{"id":-1,"op":"stats"}`)); err != nil {
		p.stop()
		return nil, fmt.Errorf("afserve did not become ready: %w", err)
	}
	return sv, nil
}

func startHost(b binaries, o serverOpts) (*server, error) {
	cmd := niced(b.self, "host",
		"-maxbytes", strconv.FormatInt(o.maxBytes, 10),
		"-traced="+strconv.FormatBool(o.traced))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	sv := &server{started: time.Now()}
	p, err := startProc(cmd)
	if err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	base, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	if err != nil || !ok {
		p.stop()
		return nil, fmt.Errorf("HTTP host did not become ready (read %q): %v", line, err)
	}
	c := newHTTPClient(inflight)
	sv.p, sv.pid, sv.scraper = p, cmd.Process.Pid, c
	sv.t = &httpTransport{c: c, url: base + "/v1/query"}
	if o.traced {
		sv.metrics = base + "/metrics"
		sv.serveURL = base + "/bench/serve"
	}
	return sv, nil
}

func (sv *server) stop() { sv.p.stop() }

// serverNice is the scheduling niceness servers run at. The generator
// shares the host's CPUs with the server it loads; at equal priority its
// open-loop timer thread queues behind busy server threads and fires
// late, charging the delay to the latencies it measures.
const serverNice = 10

// niced runs name under nice(1) when the host has it.
func niced(name string, args ...string) *exec.Cmd {
	if nice, err := exec.LookPath("nice"); err == nil {
		return exec.Command(nice, append([]string{"-n", strconv.Itoa(serverNice), name}, args...)...)
	}
	return exec.Command(name, args...)
}

// serveSpan reads the HTTP host's ServeHTTP span totals (zero on the pipe).
func (sv *server) serveSpan() (sumNs, count int64, err error) {
	if sv.serveURL == "" {
		return 0, 0, nil
	}
	resp, err := sv.scraper.Get(sv.serveURL)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	_, err = fmt.Fscan(resp.Body, &sumNs, &count)
	return sumNs, count, err
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}
