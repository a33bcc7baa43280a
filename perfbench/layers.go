package main

import (
	"fmt"
	"sync"
	"time"
)

// Stage nesting, as the server records it (internal/obs stages):
//
//   - spill_load runs inside acquire (the one-time restore an acquisition
//     triggers), so acquire's self time is acquire − spill_load.
//   - pool_grow, family_fold, solve, measure and pmax run one after
//     another after acquire, never inside one another.
//   - rank_round wraps the per-candidate scoring of a topk round, whose
//     acquire, pool_grow, family_fold, solve and measure spans are
//     recorded too. The stage histograms are not split by query, so the
//     round scheduler's own self time cannot be separated: the latency
//     budget counts the child stages and leaves rank_round out.
//   - repair has no request trace when a delta migrates pairs (deltas
//     are not traced queries), so the repair layer is measured from the
//     client spans of the delta ops and the repair counters.
//   - Spill writes run in release(), after the last stage and inside
//     af_request_seconds: they show up as request.unstaged_ms.
var coveredStages = []string{"acquire", "pool_grow", "family_fold", "solve", "measure", "pmax"}

// traced runs the workload with server observability armed and reports
// the per-layer metrics: deltas of the server's counters and stage
// histograms across the measured phases, plus the benchmark's own
// client spans. A preceding untraced closed loop on an identically
// warmed server gives the tracing overhead.
func (r *runner) traced() (*result, error) {
	base, _, err := r.setUp(false)
	if err != nil {
		return nil, err
	}
	closedReqs, openReqs := r.streams()
	restore := quietGenerator()
	baseline := closedLoop(base.t, "closed-untraced", closedReqs, inflight)
	restore()
	base.stop()

	sv, _, err := r.setUp(true)
	if err != nil {
		return nil, err
	}
	defer sv.stop()
	m0, err := fetchProm(sv.scraper, sv.metrics)
	if err != nil {
		return nil, err
	}
	span0, spans0, err := sv.serveSpan()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(sv.pid)
	if err != nil {
		return nil, err
	}
	sampler := startQueueSampler(sv)
	restore = quietGenerator()
	cl := closedLoop(sv.t, "closed", closedReqs, inflight)
	cpu1, err := procCPU(sv.pid)
	if err != nil {
		restore()
		sampler.stop()
		return nil, err
	}
	op := openLoop(sv.t, "open", openReqs)
	restore()
	queueMax, err := sampler.stop()
	if err != nil {
		return nil, err
	}
	m2, err := fetchProm(sv.scraper, sv.metrics)
	if err != nil {
		return nil, err
	}
	span2, spans2, err := sv.serveSpan()
	if err != nil {
		return nil, err
	}
	if err := r.check(sv, cl, op); err != nil {
		return nil, err
	}
	if err := r.writeSpans(baseline, cl, op); err != nil {
		return nil, err
	}

	d := promDelta{m0, m2}
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	phases := []*phase{cl, op}
	res := &result{Metrics: m}
	putCounts := func(name string, recs []rec) {
		sent, ok, failed, rejected := tally(recs)
		put(name+".sent", "count", float64(sent))
		put(name+".ok", "count", float64(ok))
		put(name+".failed", "count", float64(failed))
		put(name+".rejected", "count", float64(rejected))
	}
	var writeRecs []rec
	var writeNs float64
	for _, ph := range phases {
		sent, ok, _, _ := tally(ph.recs)
		res.Attempted += sent
		res.Failed += sent - ok
		putCounts(ph.name, ph.recs)
		for _, rc := range ph.recs {
			if rc.write {
				writeRecs = append(writeRecs, rc)
				writeNs += float64(rc.done - rc.sent)
			}
		}
	}
	putCounts("writes", writeRecs)
	put("error_rate", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))

	// Client time: reply − sent over the reads of both phases.
	var clientNs float64
	var reads int
	for _, ph := range phases {
		s, n := ph.serviceNs()
		clientNs += s
		reads += n
	}
	clientMeanUs := ratio(clientNs, float64(reads)) / 1e3
	reqSec, reqCount := d.sum("af_request_seconds_sum"), d.sum("af_request_seconds_count")
	put("outside_server_us", "us", clientMeanUs-ratio(reqSec, reqCount)*1e6)
	httpUs := 0.0
	if sv.serveURL != "" {
		httpUs = clientMeanUs - ratio(float64(span2-span0), float64(spans2-spans0))/1e3
	}
	put("transport.http_us", "us", httpUs)

	put("admission.rejected", "count", d.get("af_rejected_total"))
	put("admission.queue_depth_max", "count", queueMax)
	put("coalesce.share", "ratio", ratio(d.get("af_coalesced_total"), float64(reads)))

	hits := d.sumWhere("af_requests_total", "result", "hit")
	misses := d.sumWhere("af_requests_total", "result", "miss")
	loads := d.get("af_spill_loads_total")
	put("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	put("cache.evictions", "count", d.get("af_sessions_evicted_total"))
	put("cache.bytes_held_mb", "MB", m2.get("af_bytes_held")/(1<<20))
	put("cache.sessions_live", "count", m2.get("af_sessions_live"))
	acqSec, acqN := d.stage("acquire")
	loadSec, loadN := d.stage("spill_load")
	put("acquire.self_ms", "ms", ratio(acqSec-loadSec, acqN)*1e3)

	put("spill.loads", "count", loads)
	put("spill.load_mb", "MB", d.get("af_spill_load_bytes_total")/(1<<20))
	put("spill.load_ms", "ms", ratio(loadSec, loadN)*1e3)
	put("spill.writes", "count", d.get("af_spills_total"))
	put("spill.write_mb", "MB", d.get("af_spill_bytes_total")/(1<<20))
	put("spill.draws_saved", "count", d.get("af_spill_draws_saved_total"))
	put("spill.first_touch_share", "ratio", ratio(misses-loads, hits+misses))
	put("spill.reload_share", "ratio", ratio(loads, hits+misses))
	first, hit, reload := r.in.seqShares(residentPairs, r.in.closed, r.in.open)
	put("spill.seq_first_touch_share", "ratio", first)
	put("spill.seq_hit_share", "ratio", hit)
	put("spill.seq_reload_share", "ratio", reload)

	growSec, growN := d.stage("pool_grow")
	put("engine.pool_grow_s", "s", growSec)
	put("engine.pool_grow_count", "count", growN)
	measSec, measN := d.stage("measure")
	put("engine.measure_us", "us", ratio(measSec, measN)*1e6)
	pmaxSec, pmaxN := d.stage("pmax")
	put("engine.pmax_ms", "ms", ratio(pmaxSec, pmaxN)*1e3)
	put("engine.pmax_draws_reused", "count", d.get("af_pmax_draws_reused_total"))
	foldSec, foldN := d.stage("family_fold")
	put("setcover.fold_ms", "ms", ratio(foldSec, foldN)*1e3)
	solveSec, solveN := d.stage("solve")
	put("setcover.solve_ms", "ms", ratio(solveSec, solveN)*1e3)
	roundSec, roundN := d.stage("rank_round")
	put("rank.round_ms", "ms", ratio(roundSec, roundN)*1e3)
	put("rank.rounds", "count", roundN)

	resampled, saved := d.get("af_repair_draws_resampled_total"), d.get("af_repair_draws_saved_total")
	put("repair.s", "s", writeNs/1e9)
	put("repair.draws_resampled", "count", resampled)
	put("repair.draws_saved", "count", saved)
	put("repair.saved_share", "ratio", ratio(saved, saved+resampled))
	put("delta.pairs_dropped", "count", d.get("af_pairs_dropped_total"))

	put("process.cpu_ms_per_req", "ms", ratio(float64((cpu1-cpu0).Milliseconds()), float64(len(cl.recs))))

	var covered float64
	for _, st := range coveredStages {
		sec, _ := d.stage(st)
		covered += sec
	}
	put("latency_budget.unaccounted_share", "ratio", 1-ratio(covered, clientNs/1e9))
	put("request.unstaged_ms", "ms", ratio(reqSec-covered, reqCount)*1e3)
	put("loadgen.late_p99_ms", "ms", r.noteLateness(op))

	tput := cl.throughput()
	put("traced.throughput_rps", "req/s", tput)
	put("tracing.overhead_share", "ratio", baseline.throughput()/tput-1)
	for _, q := range []struct {
		name               string
		bp, window, across int
	}{
		{"traced.p50_ms", 5000, p50Window, calmReadBP},
		{"traced.p90_ms", 9000, p90Window, medianBP},
		{"traced.p99_ms", 9900, p99Window, medianBP},
	} {
		p, err := windowed(op.latencies(false), q.bp, q.window, q.across)
		if err != nil {
			return nil, fmt.Errorf("traced open-loop reads: %w", err)
		}
		put(q.name, "ms", p)
	}
	return res, checkMetrics(m, perLayer)
}

// queueSampler polls af_queue_depth while load runs and keeps the maximum.
type queueSampler struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	max  float64
	err  error
}

const queueSampleEvery = 50 * time.Millisecond

func startQueueSampler(sv *server) *queueSampler {
	q := &queueSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(queueSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-q.quit:
				return
			case <-tick.C:
			}
			s, err := fetchProm(sv.scraper, sv.metrics)
			q.mu.Lock()
			if err != nil && q.err == nil {
				q.err = fmt.Errorf("sampling af_queue_depth: %w", err)
			}
			q.max = max(q.max, s.get("af_queue_depth"))
			q.mu.Unlock()
		}
	}()
	return q
}

// stop ends the sampling and returns the largest queue depth seen.
func (q *queueSampler) stop() (float64, error) {
	close(q.quit)
	<-q.done
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.max, q.err
}
