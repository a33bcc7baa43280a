package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile is only reported when the run drew at least this many
// samples above it, so p99 needs 1000 samples and p90 needs 100.
const minTail = 10

// tail returns how many of n samples lie strictly beyond the nearest-rank
// q-quantile. q is given in basis points (p99 = 9900) so the rank is
// exact integer arithmetic, not a float product that may round up.
func tail(n, qBP int) int {
	rank := (n*qBP + 9999) / 10000
	return n - rank
}

// percentile returns the nearest-rank quantile qBP (basis points) of
// sorted, failing when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, qBP int) (float64, error) {
	n := len(sorted)
	if t := tail(n, qBP); n == 0 || t < minTail {
		return 0, fmt.Errorf("p%s needs %d samples beyond it, have %d of %d",
			bpLabel(qBP), minTail, max(t, 0), n)
	}
	rank := (n*qBP + 9999) / 10000
	return sorted[max(rank, 1)-1], nil
}

// highestPercentile returns the highest percentile of the ladder p50,
// p90, p99, p99.9, p99.99 that n samples support (minTail beyond it),
// or 0 when not even the median is supported.
func highestPercentile(n int) int {
	best := 0
	for _, q := range []int{5000, 9000, 9900, 9990, 9999} {
		if tail(n, q) >= minTail {
			best = q
		}
	}
	return best
}

// bpLabel renders a percentile given in basis points: 9900 → "99".
func bpLabel(qBP int) string { return fmt.Sprintf("%g", float64(qBP)/100) }

// sortedMs converts durations in nanoseconds to sorted milliseconds.
func sortedMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of xs (average of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0 (an idle layer reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
