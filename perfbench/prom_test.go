package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP af_request_seconds query latency by kind
# TYPE af_request_seconds summary
af_request_seconds{kind="solvemax",quantile="0.5"} 0.0001
af_request_seconds_sum{kind="solvemax"} 1.5
af_request_seconds_count{kind="solvemax"} 10
af_request_seconds_sum{kind="pmax"} 0.25
af_request_seconds_count{kind="pmax"} 5
af_stage_seconds_sum{stage="acquire"} 0.5
af_stage_seconds_count{stage="acquire"} 15
af_requests_total{kind="solvemax",result="hit"} 8
af_requests_total{kind="solvemax",result="miss"} 2
af_requests_total{kind="pmax",result="hit"} 5
af_spill_load_errors_total{cause="checksum"} 0
af_coalesced_total 3
af_bytes_held 1048576
`

// The later scrape lists labels in another order and adds a series: the
// parser keys on the label set, not on its spelling.
const promAfter = `af_request_seconds_sum{kind="solvemax"} 2.5
af_request_seconds_count{kind="solvemax"} 30
af_request_seconds_sum{kind="pmax"} 0.75
af_request_seconds_count{kind="pmax"} 25
af_stage_seconds_sum{stage="acquire"} 1.25
af_stage_seconds_count{stage="acquire"} 55
af_requests_total{result="hit",kind="solvemax"} 20
af_requests_total{result="miss",kind="solvemax"} 4
af_requests_total{kind="pmax",result="hit"} 25
af_requests_total{kind="topk",result="miss"} 1
af_spill_load_errors_total{cause="checksum"} 0
af_coalesced_total 7
af_bytes_held 3.145728e+06
weird{path="a\"b,c"} 1
`

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{before, after}
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"labelled counter", d.get("af_requests_total", "kind", "solvemax", "result", "hit"), 12},
		{"label order", d.get("af_requests_total", "result", "miss", "kind", "solvemax"), 2},
		{"new series", d.get("af_requests_total", "kind", "topk", "result", "miss"), 1},
		{"bare counter", d.get("af_coalesced_total"), 4},
		{"sum over labels", d.sum("af_request_seconds_sum"), 1.5},
		{"count over labels", d.sum("af_request_seconds_count"), 40},
		{"sum by label", d.sumWhere("af_requests_total", "result", "hit"), 32},
		{"sum by label (miss)", d.sumWhere("af_requests_total", "result", "miss"), 3},
		{"gauge", after.get("af_bytes_held"), 3 << 20},
		{"quantile series kept apart", before.get("af_request_seconds", "kind", "solvemax", "quantile", "0.5"), 0.0001},
		{"escaped label value", after.get("weird", "path", `a\"b,c`), 1},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	sec, n := d.stage("acquire")
	if sec != 0.75 || n != 40 {
		t.Errorf("stage acquire delta = %v s / %v spans, want 0.75 / 40", sec, n)
	}
	if sec, n := d.stage("spill_load"); sec != 0 || n != 0 {
		t.Errorf("an absent stage must read 0, got %v / %v", sec, n)
	}
}

func TestPromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"af_x{kind=\"a\" 1\n",
		"af_x{kind=a} 1\n",
		"af_x notanumber\n",
		"af_x\n",
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
