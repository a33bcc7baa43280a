package server

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// serverObs binds a Server to an obs.Obs: per-kind request latency
// histograms, per-stage histograms fed from finished traces, and
// scrape-time mirrors of every ledger counter (generated from the ledger
// table) and gauge. All mirrors are CounterFunc/GaugeFunc reads of the
// server's existing atomics, so the query hot path pays nothing for
// them; only an enabled trace and the two Observe calls per finished
// query are new work.
//
// Metric names follow the package obs convention (af_ prefix, _total
// counters, _seconds summaries); they are a stable scrape API.
type serverObs struct {
	o       *obs.Obs
	reqHist [numKinds]*obs.Histogram // af_request_seconds{kind}
	reqErrs [numKinds]*obs.Counter   // af_request_errors_total{kind}
	stage   [obs.NumStages]*obs.Histogram
}

func newServerObs(sv *Server, o *obs.Obs) *serverObs {
	so := &serverObs{o: o}
	r := o.Registry
	for k := KindSolve; k < numKinds; k++ {
		so.reqHist[k] = r.Histogram("af_request_seconds", "query latency by kind", "kind", k.String())
		so.reqErrs[k] = r.Counter("af_request_errors_total", "queries that returned an error", "kind", k.String())
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		so.stage[st] = r.Histogram("af_stage_seconds", "time spent per query stage", "stage", st.String())
	}
	for k := KindSolve; k < numKinds; k++ {
		kc := &sv.kinds[k]
		r.CounterFunc("af_requests_total", "session acquisitions by kind and cache outcome",
			func() float64 { return float64(kc.hits.Load()) }, "kind", k.String(), "result", "hit")
		r.CounterFunc("af_requests_total", "session acquisitions by kind and cache outcome",
			func() float64 { return float64(kc.misses.Load()) }, "kind", k.String(), "result", "miss")
	}
	for c := range ledger {
		row, v := &ledger[c], &sv.ledger[c]
		r.CounterFunc(row.metric, row.help, func() float64 { return float64(v.Load()) }, row.labels...)
	}
	// Gauges are registered even with their feature disabled (all zeros):
	// dashboards and the CI smoke can rely on the names existing.
	r.GaugeFunc("af_sessions_live", "currently cached pair sessions", func() float64 {
		return float64(sv.sessionsLive())
	})
	r.GaugeFunc("af_bytes_held", "accounted bytes of cached pair state", func() float64 {
		return float64(sv.bytesHeld())
	})
	r.GaugeFunc("af_graph_epochs", "graph epochs served (1 + effective deltas)", func() float64 {
		return float64(sv.Epochs())
	})
	r.GaugeFunc("af_inflight", "queries currently executing (holding an admission slot)", func() float64 {
		inflight, _ := sv.admissionLoad()
		return float64(inflight)
	})
	r.GaugeFunc("af_queue_depth", "queries waiting for an admission slot", func() float64 {
		_, queued := sv.admissionLoad()
		return float64(queued)
	})
	return so
}

// obsNoopEnd is the pre-allocated end callback of the disabled path, so
// obsBegin allocates nothing when observability is off.
var obsNoopEnd = func(error) {}

// obsBegin opens one query's trace and returns the (possibly wrapped)
// context plus the end callback the query must invoke with its final
// error. With observability disabled both returns are free: the original
// context and a shared no-op.
func (sv *Server) obsBegin(ctx context.Context, kind Kind) (context.Context, func(err error)) {
	so := sv.obs
	if so == nil {
		return ctx, obsNoopEnd
	}
	tr := so.o.Tracer.Start(kind.String())
	start := time.Now()
	return obs.WithTrace(ctx, tr), func(err error) {
		tr.Finish()
		so.reqHist[kind].Observe(time.Since(start).Nanoseconds())
		if err != nil {
			so.reqErrs[kind].Inc()
		}
		tr.EachSpan(func(st obs.Stage, d time.Duration) {
			so.stage[st].Observe(d.Nanoseconds())
		})
	}
}

// Obs returns the server's observability bundle (nil when disabled) —
// the handle the serving binaries expose over HTTP.
func (sv *Server) Obs() *obs.Obs {
	if sv.obs == nil {
		return nil
	}
	return sv.obs.o
}

// WriteStatusz renders a human-readable status page: the stats ledger
// (generated from the ledger table), per-kind and per-stage latency
// quantiles, and the slowest retained traces. The page is for operators;
// the machine-readable form is the registry's Prometheus exposition.
func (sv *Server) WriteStatusz(w io.Writer) {
	sv.writeLedgerStatusz(w)
	for k := KindSolve; k < numKinds; k++ {
		c := sv.KindStats(k)
		if c.Hits+c.Misses == 0 {
			continue
		}
		fmt.Fprintf(w, "kind %-9s hits=%d misses=%d", k.String(), c.Hits, c.Misses)
		if sv.obs != nil {
			if snap := sv.obs.reqHist[k].Snapshot(); snap.Count() > 0 {
				fmt.Fprintf(w, " n=%d p50=%s p99=%s p999=%s",
					snap.Count(), statuszDur(snap.Quantile(0.5)), statuszDur(snap.Quantile(0.99)), statuszDur(snap.Quantile(0.999)))
			}
		}
		fmt.Fprintln(w)
	}
	if sv.obs == nil {
		return
	}
	for stg := obs.Stage(0); stg < obs.NumStages; stg++ {
		snap := sv.obs.stage[stg].Snapshot()
		if snap.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "stage %-11s n=%d p50=%s p99=%s total=%s\n",
			stg.String(), snap.Count(), statuszDur(snap.Quantile(0.5)), statuszDur(snap.Quantile(0.99)),
			time.Duration(snap.Sum).Round(time.Microsecond))
	}
	for i, s := range sv.obs.o.Tracer.Slowest() {
		fmt.Fprintf(w, "slow[%d] kind=%s total=%s spans=%d\n",
			i, s.Kind, time.Duration(s.TotalUs)*time.Microsecond, len(s.Spans))
	}
}

func statuszDur(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
