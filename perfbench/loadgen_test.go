package main

import (
	"reflect"
	"testing"
)

func TestWindowedMedian(t *testing.T) {
	// Three windows of 1000: p99s 990, 1990 and 2990 ms → median 1990.
	lat := make([]int64, 3000)
	for i := range lat {
		lat[i] = int64(i+1) * 1e6
	}
	v, err := windowed(lat, 9900, 1000, 5000)
	if err != nil || v != 1990 {
		t.Errorf("windowed p99 = %v, %v; want 1990", v, err)
	}
	if _, err := windowed(lat[:999], 9900, 1000, 5000); err == nil {
		t.Error("a p99 over 999 samples must be refused")
	}
	// Eight windows of 20: medians 10, 30, …, 150 ms; their lower
	// quartile is the second, 30 ms.
	v, err = windowed(lat[:160], 5000, 20, 2500)
	if err != nil || v != 30 {
		t.Errorf("lower quartile of window p50s = %v, %v; want 30", v, err)
	}
}

// TestStealCorrection: latencies and throughput count only the time the
// hypervisor left the VM, measured per stealWindow over busy ticks.
func TestStealCorrection(t *testing.T) {
	// Two seconds: a quarter of the busy time stolen in the first, none
	// in the second; every read took 4 ms of wall time.
	ph := &phase{elapsed: 2 * stealWindow}
	ph.steal = []stealSample{
		{0, cpuTicks{}},
		{int64(stealWindow), cpuTicks{total: 200, busy: 100, steal: 25}},
		{int64(2 * stealWindow), cpuTicks{total: 400, busy: 200, steal: 25}},
	}
	for i := 0; i < 4; i++ {
		due := int64(i) * int64(stealWindow) / 2
		ph.recs = append(ph.recs, rec{due: due, sent: due, done: due + 4e6, out: outOK})
	}
	if got, want := ph.latencies(false), []int64{3e6, 3e6, 4e6, 4e6}; !reflect.DeepEqual(got, want) {
		t.Errorf("latencies = %v, want %v", got, want)
	}
	if got := ph.stealShare(); got != 0.125 {
		t.Errorf("stealShare = %v, want 0.125 (25 of 200 busy ticks)", got)
	}
	if got := ph.throughput(); got != 4/(2*0.875) {
		t.Errorf("throughput = %v, want %v", got, 4/(2*0.875))
	}
}
