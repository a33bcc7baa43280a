package server

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// query is the one path every public query takes, in this order:
// admission (see admission), coalescing onto an identical in-flight
// query (see coalesce), then a trace and the kind's latency histogram
// around run. Every answer the server gives is a pure function of
// (Seed, s, t, params, graph epoch), so one pipeline serves them all;
// callers shape their own reply from the shared R.
func query[R any](ctx context.Context, sv *Server, kind Kind, s, t graph.Node, params string, run func(context.Context) (R, error)) (R, error) {
	var zero R
	if err := sv.admit(ctx); err != nil {
		return zero, err
	}
	defer sv.admitDone()
	v, err := sv.coalesce(kind, s, t, params, func() (_ any, err error) {
		ctx, obsEnd := sv.obsBegin(ctx, kind)
		defer func() { obsEnd(err) }()
		r, err := run(ctx)
		return r, err
	})
	if err != nil {
		return zero, err
	}
	return v.(R), nil
}

// pairQuery is query for a single-pair kind: run gets the (s,t) entry,
// acquired inside the trace and released when run returns.
func pairQuery[R any](ctx context.Context, sv *Server, kind Kind, s, t graph.Node, params string, run func(context.Context, *entry) (R, error)) (R, error) {
	return query(ctx, sv, kind, s, t, params, func(ctx context.Context) (R, error) {
		e, err := sv.acquire(ctx, kind, s, t)
		if err != nil {
			var zero R
			return zero, err
		}
		defer sv.release(e)
		return run(ctx, e)
	})
}

// flightKey identifies one coalescable query: kind, pair, a rendered
// parameter string — and the graph generation the query started on.
// Keying on the generation pointer is what keeps coalescing delta-epoch
// safe: a query that begins after ApplyDelta returns reads the new
// generation, so it can never adopt an answer computed (or still being
// computed) at the previous epoch, while in-flight queries of the old
// epoch keep coalescing among themselves.
type flightKey struct {
	gen    *generation
	kind   Kind
	s, t   graph.Node
	params string
}

// flightCall is one in-flight computation; duplicates block on the Once
// (the per-entry pattern spill restore uses) and share the result.
type flightCall struct {
	once sync.Once
	val  any
	err  error
}

// coalesce funnels concurrent identical queries into a single execution;
// every query kind passes through it (see query). The first caller
// computes fn; every caller that arrives while the flight is open blocks
// on the call's Once and shares the result — ledgered in
// Stats().Coalesced — so two racing clients no longer both pay a cold
// pool. Sharing is sound because every answer is a pure function of
// (Seed, s, t, params) at a fixed graph epoch: the joiner receives
// exactly the bytes it would have computed. The entry is removed when
// the computation finishes, so a later non-overlapping duplicate
// recomputes — cheaply, against the now-warm pools.
//
// One sharp edge is inherited from every singleflight: joiners share the
// winning caller's execution, including its context. A joiner whose own
// context is live can therefore see the winner's cancellation error;
// retrying is always sound (purity), and the retried query reuses the
// pools the aborted flight already grew.
func (sv *Server) coalesce(kind Kind, s, t graph.Node, params string, fn func() (any, error)) (any, error) {
	key := flightKey{gen: sv.gen.Load(), kind: kind, s: s, t: t, params: params}
	v, joined := sv.flights.LoadOrStore(key, &flightCall{})
	c := v.(*flightCall)
	if joined {
		sv.ledger[ctrCoalesced].Add(1)
	}
	c.once.Do(func() {
		defer sv.flights.Delete(key)
		c.val, c.err = fn()
	})
	return c.val, c.err
}

// pairParams renders a parameter list into a flight key component.
func pairParams(args ...any) string { return fmt.Sprint(args...) }
