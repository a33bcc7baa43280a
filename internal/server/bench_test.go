package server

import (
	"context"
	"sync/atomic"
	"testing"

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
