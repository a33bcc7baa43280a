package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	af "repro"
)

type runConfig struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Latency percentiles are taken over consecutive windows of the fewest
// samples that put 10 beyond them: 20 for the read p50, 100 for p90
// (and the write p50), 1000 for p99. The run reports the median over
// windows, except for the read p50: there it reports their lower
// quartile, the p50 of the calmer part of the run. A millisecond read
// either misses a host stall or waits out most of one, so in a steal
// spell the run-wide read p50 rose by up to 74 % even after the steal
// correction; the lower quartile rose by about half as much.
const (
	p50Window  = 20
	p90Window  = 100
	p99Window  = 1000
	medianBP   = 5000
	calmReadBP = 2500
)

// quietGenerator collects the generator's garbage and defers further
// collections while load runs, so the generator's own GC does not delay
// its timer; the returned func restores the default and reports how many
// collections ran meanwhile.
func quietGenerator() func() uint32 {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	old := debug.SetGCPercent(400)
	return func() uint32 {
		debug.SetGCPercent(old)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return after.NumGC - before.NumGC
	}
}

// tailRecord states the read sample count and the highest percentile it
// supports, with its value.
func tailRecord(latNs []int64) map[string]any {
	q := highestPercentile(len(latNs))
	out := map[string]any{"samples": len(latNs)}
	if q > 0 {
		v, _ := percentile(sortedMs(latNs), q) // q is supported by construction
		out["p"+bpLabel(q)+"_ms"] = v
	}
	return out
}

// lateLimit is how late the open-loop generator may fire its requests
// (p99) before the run is flagged invalid: past it, the generator, not
// the server, shaped the latencies.
const lateLimit = 2 * time.Millisecond

type runner struct {
	ctx  context.Context
	cfg  runConfig
	sp   *spec
	bins binaries
	g    *af.Graph
	in   *inputs
	work string // this run's scratch directory under .bench_build

	mismatches []string // correctness failures
	record     map[string]any
}

func run(ctx context.Context, cfg runConfig) (*result, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(cfg.root, ".bench_build")
	r := &runner{
		ctx: ctx, cfg: cfg, sp: sp,
		bins:   binaries{afserve: filepath.Join(build, "afserve"), self: self},
		work:   filepath.Join(build, "run", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())),
		record: map[string]any{},
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)
	if r.g, err = af.GenerateDataset(graphDataset, graphScale, graphSeed); err != nil {
		return nil, err
	}
	steal0 := hostSteal()
	t0 := time.Now()
	if r.in, err = buildInputs(ctx, sp, r.g, cfg.seed, cfg.seconds); err != nil {
		return nil, err
	}
	r.record["inputs_s"] = time.Since(t0).Seconds()
	var res *result
	if cfg.trace {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", m)
	}
	res.Correct = len(r.mismatches) == 0
	r.record["mismatches"] = len(r.mismatches)
	r.record["host_steal_share"] = hostSteal().since(steal0)
	return res, r.writeRecord(res)
}

// setUp starts a server and replays the warm-up; its duration, from
// process start (graph generation included) to the last warm-up reply,
// is one setup_s sample.
func (r *runner) setUp(traced bool) (*server, time.Duration, error) {
	o := serverOpts{traced: traced, maxBytes: r.sp.maxBytes}
	if r.sp.spill {
		o.spillDir = filepath.Join(r.work, "spill")
		if err := os.RemoveAll(o.spillDir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(o.spillDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	sv, err := startServer(r.bins, r.sp.transport, o)
	if err != nil {
		return nil, 0, err
	}
	if len(r.in.warm) == 0 {
		return sv, time.Since(sv.started), nil
	}
	reqs := make([]req, len(r.in.warm))
	for i, o := range r.in.warm {
		reqs[i] = req{id: int64(i + 1), kind: o.kind, line: r.in.encode(int64(i+1), o, nil), keep: true}
	}
	ph := closedLoop(sv.t, "warm", reqs, inflight)
	took := time.Since(sv.started)
	invited := make([][]af.Node, len(r.in.pairs))
	for i, rc := range ph.recs {
		if rc.out != outOK {
			sv.stop()
			return nil, 0, fmt.Errorf("warm-up request %s failed: %s", reqs[i].line, rc.reply)
		}
		o := r.in.warm[i]
		if o.kind != opSolveMax || o.budget != warmBudget {
			continue
		}
		var rep struct {
			Result struct{ Invited []af.Node } `json:"result"`
		}
		if err := json.Unmarshal(rc.reply, &rep); err != nil {
			sv.stop()
			return nil, 0, fmt.Errorf("warm-up reply %.200s: %w", rc.reply, err)
		}
		invited[o.pair] = rep.Result.Invited
	}
	// Answers are pure: every set-up must see the same invitations.
	if r.in.invited == nil {
		r.in.invited = invited
	} else if fmt.Sprint(invited) != fmt.Sprint(r.in.invited) {
		r.mismatches = append(r.mismatches, "warm-up invitations differ between set-ups")
	}
	return sv, took, nil
}

// streams encodes the measured phases.
func (r *runner) streams() (closed, open []req) {
	enc := func(ops []op, base int64, offset int) []req {
		out := make([]req, len(ops))
		for i, o := range ops {
			id := base + int64(i)
			out[i] = req{id: id, kind: o.kind, line: r.in.encode(id, o, r.in.deltas), due: o.due,
				write: o.kind == opDelta, keep: r.in.sampled[offset+i]}
		}
		return out
	}
	return enc(r.in.closed, 1_000_000, 0), enc(r.in.open, 2_000_000, len(r.in.closed))
}

func (r *runner) untraced() (*result, error) {
	var setups []float64
	var sv *server
	before := hostSteal()
	for i := 0; i < r.sp.setups; i++ {
		s, took, err := r.setUp(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < r.sp.setups-1 {
			s.stop()
		} else {
			sv = s
		}
	}
	// Like every latency, set-up time counts only the time the
	// hypervisor left the VM (see phase.latencies).
	setupStolen := hostSteal().stolen(before)
	defer sv.stop()
	closedReqs, openReqs := r.streams()
	restore := quietGenerator()
	cl := closedLoop(sv.t, "closed", closedReqs, inflight)
	op := openLoop(sv.t, "open", openReqs)
	r.record["generator_gcs"] = restore()
	if err := r.check(sv, cl, op); err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(sv.pid)
	if err != nil {
		return nil, err
	}
	sv.stop()

	phases := []*phase{cl, op}
	writes := op
	if r.sp.probeWrites > 0 {
		probe, err := r.writeProbe()
		if err != nil {
			return nil, err
		}
		phases = append(phases, probe)
		writes = probe
	}
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("setup_s", "s", median(setups)*(1-setupStolen))
	put("throughput_rps", "req/s", cl.throughput())
	r.record["stolen_share"] = map[string]float64{
		"setup": setupStolen, "closed": cl.stealShare(), "open": op.stealShare(), "writes": writes.stealShare(),
	}
	reads, wl := op.latencies(false), writes.latencies(true)
	for _, q := range []struct {
		name               string
		lat                []int64
		bp, window, across int
	}{
		{"p50_ms", reads, 5000, p50Window, calmReadBP},
		{"p90_ms", reads, 9000, p90Window, medianBP},
		{"write_p50_ms", wl, 5000, p90Window, medianBP},
		{"write_p90_ms", wl, 9000, p90Window, medianBP},
	} {
		v, err := windowed(q.lat, q.bp, q.window, q.across)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		put(q.name, "ms", v)
	}
	put("peak_rss_mb", "MB", rss)
	r.record["read_tail"] = tailRecord(reads)
	if p99, err := windowed(reads, 9900, p99Window, medianBP); err == nil {
		r.record["read_p99_ms"] = p99
	}
	res := &result{Metrics: m}
	for _, ph := range phases {
		sent, ok, _, _ := tally(ph.recs)
		res.Attempted += sent
		res.Failed += sent - ok
	}
	put("ok_ratio", "ratio", ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)))
	r.record["samples"] = map[string]int{"open_reads": len(reads), "writes": len(wl), "closed": len(cl.recs)}
	r.record["phase_s"] = map[string]float64{"closed": cl.elapsed.Seconds(), "open": op.elapsed.Seconds(), "writes": writes.elapsed.Seconds()}
	r.record["setups_s"] = setups // as measured, before the steal correction
	r.noteLateness(phases...)
	return res, checkMetrics(m, endToEnd)
}

// writeProbe sends the probe deltas one at a time to a fresh server of
// the workload's transport that holds no pair: the write path's floor —
// graph apply, weight rebuild, epoch bookkeeping — with nothing to repair.
func (r *runner) writeProbe() (*phase, error) {
	sv, err := startServer(r.bins, r.sp.transport, serverOpts{maxBytes: r.sp.maxBytes})
	if err != nil {
		return nil, err
	}
	defer sv.stop()
	reqs := make([]req, len(r.in.probeDeltas))
	for i := range reqs {
		id := int64(4_000_000 + i)
		o := op{kind: opDelta, delta: i}
		reqs[i] = req{id: id, kind: opDelta, line: r.in.encode(id, o, r.in.probeDeltas), write: true}
	}
	return closedLoop(sv.t, "write-probe", reqs, 1), nil
}

// check runs the correctness gate. delta-mix answers a probe set at
// quiescence after its last delta, compared with an oracle that replays
// the same deltas; the other workloads compare their sampled replies.
func (r *runner) check(sv *server, phases ...*phase) error {
	o := newOracle(r.g)
	var items []checked
	if len(r.in.probe) > 0 {
		reqs := make([]req, len(r.in.probe))
		for i, p := range r.in.probe {
			id := int64(3_000_000 + i)
			reqs[i] = req{id: id, kind: p.kind, line: r.in.encode(id, p, nil), keep: true}
		}
		phases = []*phase{closedLoop(sv.t, "probe", reqs, 1)}
		if err := o.replay(r.ctx, r.in.deltas); err != nil {
			return err
		}
	}
	for _, ph := range phases {
		for _, rc := range ph.recs {
			if rc.line != nil {
				items = append(items, checked{kind: rc.kind, line: rc.line, reply: rc.reply})
			}
		}
	}
	t0 := time.Now()
	r.mismatches = append(r.mismatches, o.gate(items)...)
	r.record["gate_s"] = time.Since(t0).Seconds()
	r.record["gate_checked"] = len(items)
	return nil
}

// noteLateness records how late the open-loop generator ran and flags
// the run invalid when it fell behind.
func (r *runner) noteLateness(phases ...*phase) float64 {
	var late []int64
	for _, ph := range phases {
		late = append(late, ph.late...)
	}
	ms := sortedMs(late)
	p99, err := percentile(ms, 9900)
	if err != nil {
		p99 = ms[len(ms)-1]
	}
	r.record["loadgen_late_p99_ms"] = p99
	r.record["loadgen_late_p50_ms"] = median(ms)
	valid := time.Duration(p99*1e6) <= lateLimit
	r.record["valid"] = valid
	if !valid {
		fmt.Fprintf(os.Stderr, "perfbench: INVALID RUN: the open-loop generator fell behind (late p99 %.3f ms > %v)\n", p99, lateLimit)
	}
	return p99
}

// writeRecord stamps the run (host, toolchain, source, seeds) and writes
// it, with the result, under .bench_build/out; the stamp is also printed
// as a comment line ahead of the result line.
func (r *runner) writeRecord(res *result) error {
	for k, v := range hostStamp(r.cfg.root) {
		r.record[k] = v
	}
	r.record["workload"] = r.cfg.workload
	r.record["workload_seed"] = r.cfg.seed
	r.record["graph"] = fmt.Sprintf("%s scale %g seed %d", graphDataset, graphScale, graphSeed)
	r.record["seconds"] = r.cfg.seconds
	r.record["trace"] = r.cfg.trace
	r.record["offered_rate_rps"] = r.sp.openRate
	r.record["result"] = res
	b, err := json.Marshal(r.record)
	if err != nil {
		return err
	}
	fmt.Printf("# perfbench %s\n", b)
	dir := filepath.Join(r.cfg.root, ".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%t.json", r.cfg.workload, r.cfg.seed, r.cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// writeSpans writes every client span of the traced run, one JSON object
// per line, once the run is over.
func (r *runner) writeSpans(phases ...*phase) error {
	dir := filepath.Join(r.cfg.root, ".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for _, ph := range phases {
		for _, rc := range ph.recs {
			fmt.Fprintf(&b, `{"phase":%q,"id":%d,"op":%q,"due_us":%d,"sent_us":%d,"reply_us":%d,"ok":%t}`+"\n",
				ph.name, rc.id, rc.kind, rc.due/1e3, rc.sent/1e3, rc.done/1e3, rc.out == outOK)
		}
		for _, st := range ph.steal {
			fmt.Fprintf(&b, `{"phase":%q,"steal_at_us":%d,"cpu_ticks":%g,"busy_ticks":%g,"steal_ticks":%g}`+"\n",
				ph.name, st.t/1e3, st.total, st.busy, st.steal)
		}
	}
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed)
	return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
}
