package main

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPercentileRule: a percentile is reported only with at least 10
// samples beyond it, with exact integer rank arithmetic at the edges.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, qBP, tail int }{
		{1000, 9900, 10}, {999, 9900, 9}, {100, 9000, 10}, {99, 9000, 9},
		{20, 5000, 10}, {19, 5000, 9}, {10000, 9990, 10}, {1400, 9900, 14},
	} {
		if got := tail(tc.n, tc.qBP); got != tc.tail {
			t.Errorf("tail(%d, %d) = %d, want %d", tc.n, tc.qBP, got, tc.tail)
		}
	}
	for _, tc := range []struct{ n, want int }{
		{19, 0}, {20, 5000}, {99, 5000}, {100, 9000}, {999, 9000},
		{1000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}

	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sort.Float64s(xs)
	if p, err := percentile(xs, 9900); err != nil || p != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", p, err)
	}
	if p, err := percentile(xs, 5000); err != nil || p != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", p, err)
	}
	if _, err := percentile(xs[:999], 9900); err == nil {
		t.Error("p99 of 999 samples must be refused: only 9 lie beyond it")
	}
	if _, err := percentile(nil, 5000); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
