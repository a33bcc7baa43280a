// Command perfbench is the repository's end-to-end serving benchmark.
// It drives the real serving stack through both of its transports — the
// afserve binary over its stdin/stdout pipe, and the public
// activefriending.Server HTTP handler in a benchmark-owned host process —
// with seeded friending-query workloads on the Youtube analog, checks the
// replies against a cold in-process server, and prints one JSON result
// line. README.md in this directory describes the workloads, the metrics
// and how each layer is measured.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload hot-http --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate, traced run reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// deadline bounds one invocation; past it every child is stopped and
// the benchmark fails rather than overrun its caller's budget.
const deadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "host" {
		if err := hostMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench host:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain())
}

func benchMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout the binaries were built from")
	workload := fs.String("workload", "", "workload: hot-http, spill-pipe or delta-mix")
	seed := fs.Int64("seed", 1, "workload seed: pairs, request streams and deltas derive from it")
	seconds := fs.Int("seconds", 15, "measured seconds per run (sizes the closed and open loops)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	defer stopChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopChildren()
		os.Exit(1)
	}()
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		stopChildren()
		os.Exit(1)
	})
	defer watchdog.Stop()

	res, err := run(context.Background(), runConfig{
		root: *root, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
