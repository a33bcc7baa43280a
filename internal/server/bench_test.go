package server

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/weights"
)

// BenchmarkServerManyPairs drives concurrent mixed traffic over ≥ 32
// pairs through one budgeted server — the serving layer's target
// workload. Run with -race in CI to machine-check the concurrency
// claims.
func BenchmarkServerManyPairs(b *testing.B) {
	g := testGraph(200, 300)
	pairs := validPairs(g, 32)
	if len(pairs) < 32 {
		b.Fatalf("only %d valid pairs", len(pairs))
	}
	// A budget below the working set (~32 pairs × tens of KiB of pools)
	// keeps the LRU evicting while the benchmark runs.
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, MaxPoolBytes: 1 << 20})
	ctx := context.Background()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			pk := pairs[int(i)%len(pairs)]
			if i%4 == 0 {
				ns := graph.NewNodeSetOf(sv.Graph().NumNodes(), pk.t)
				for _, v := range sv.Graph().Neighbors(pk.t) {
					ns.Add(v)
				}
				if _, err := sv.AcceptanceProbability(ctx, pk.s, pk.t, ns.Members(), 4096); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := sv.Pmax(ctx, pk.s, pk.t, 4096); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.ReportMetric(float64(sv.Stats().SessionsEvicted), "evictions")
}

// BenchmarkAdmissionAdmit measures the gate's uncontended fast path —
// the per-query overhead every admitted request pays.
func BenchmarkAdmissionAdmit(b *testing.B) {
	g := testGraph(40, 60)
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, MaxInflight: 4, MaxQueue: 16})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.admit(ctx); err != nil {
			b.Fatal(err)
		}
		sv.admitDone()
	}
}

// BenchmarkAdmissionReject measures the rejection path under full
// saturation — the latency an overloaded client sees before its 429 /
// error reply, which must stay far below the cost of running a query.
func BenchmarkAdmissionReject(b *testing.B) {
	g := testGraph(40, 60)
	sv := New(g, weights.NewDegree(g), Config{Seed: 1, MaxInflight: 1, MaxQueue: 0})
	ctx := context.Background()
	if err := sv.admit(ctx); err != nil { // hold the only slot
		b.Fatal(err)
	}
	defer sv.admitDone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.admit(ctx); err != ErrOverloaded {
			b.Fatalf("admit under saturation: %v", err)
		}
	}
}

// BenchmarkApplyDeltaFloor is the write path's floor on the Youtube
// analog at scale 0.05 (56,744 nodes, 299,048 edges): single-edge
// deltas, alternately adding and removing one edge, on a server that
// holds no pair — graph apply, weight rebuild and the epoch's
// fingerprint, with nothing to repair.
func BenchmarkApplyDeltaFloor(b *testing.B) {
	ds, err := gen.DatasetByName("Youtube")
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Generate(0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	sv := New(g, weights.NewDegree(g), Config{Seed: 1})
	// Two late arrivals: low degree, and not adjacent.
	n := graph.Node(g.NumNodes())
	e := graph.Edge{U: n - 1, V: n - 2}
	if g.HasEdge(e.U, e.V) {
		e.V = n - 3
	}
	add, remove := &graph.Delta{Add: []graph.Edge{e}}, &graph.Delta{Remove: []graph.Edge{e}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := add
		if i%2 == 1 {
			d = remove
		}
		res, err := sv.ApplyDelta(ctx, d, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dirty) != 2 {
			b.Fatalf("delta %d dirtied %v, want both endpoints", i, res.Dirty)
		}
	}
}
