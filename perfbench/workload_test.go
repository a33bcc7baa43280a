package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	af "repro"
)

func testGraph(t *testing.T) *af.Graph {
	t.Helper()
	g, err := af.GenerateDataset(graphDataset, graphScale, graphSeed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stream renders every request a run would send, with each pair's
// acceptance invitation fixed to {t} (a run takes it from its warm-up).
func stream(in *inputs) []byte {
	in.invited = make([][]af.Node, len(in.pairs))
	for i, p := range in.pairs {
		in.invited[i] = []af.Node{p.T}
	}
	var b bytes.Buffer
	emit := func(ops []op, deltas []edge) {
		for i, o := range ops {
			b.Write(in.encode(int64(i+1), o, deltas))
			fmt.Fprintf(&b, " due=%d\n", o.due)
		}
	}
	emit(in.warm, nil)
	emit(in.closed, in.deltas)
	emit(in.open, in.deltas)
	emit(in.probe, nil)
	for i := range in.probeDeltas {
		b.Write(in.encode(int64(i), op{kind: opDelta, delta: i}, in.probeDeltas))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "sampled=%v\n", in.sampled)
	return b.Bytes()
}

// TestSeededDeterminism: a workload seed fixes the request streams byte
// for byte, and with them the spill-pipe first-touch / hit / reload
// split; another seed draws other streams.
func TestSeededDeterminism(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	for _, sp := range specs {
		a, err := buildInputs(ctx, sp, g, 7, 20)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		b, err := buildInputs(ctx, sp, g, 7, 20)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		c, err := buildInputs(ctx, sp, g, 8, 20)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		sa, sb, sc := stream(a), stream(b), stream(c)
		if !bytes.Equal(sa, sb) {
			t.Errorf("%s: seed 7 drew two different request streams", sp.name)
		}
		if bytes.Equal(sa, sc) {
			t.Errorf("%s: seeds 7 and 8 drew the same request stream", sp.name)
		}
		fa, ha, ra := a.seqShares(residentPairs, a.closed, a.open)
		fb, hb, rb := b.seqShares(residentPairs, b.closed, b.open)
		if fa != fb || ha != hb || ra != rb {
			t.Errorf("%s: seed 7 gave shares %v/%v/%v then %v/%v/%v", sp.name, fa, ha, ra, fb, hb, rb)
		}
		if sp.name == "spill-pipe" && (fa == 0 || ha == 0 || ra == 0) {
			t.Errorf("spill-pipe must mix first touches, hits and reloads, got %v/%v/%v", fa, ha, ra)
		}
	}
}

// TestWorkloadInputs checks the invariants the run relies on: enough
// samples for the reported percentiles in a run of BENCHMARK.json's
// length, valid screened pairs, and deltas that never dissolve a pair or
// remove an original edge.
func TestWorkloadInputs(t *testing.T) {
	g := testGraph(t)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		in, err := buildInputs(context.Background(), sp, g, 3, b.RunSeconds)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if len(in.pairs) != sp.sources*sp.perSource {
			t.Errorf("%s: %d pairs, want %d", sp.name, len(in.pairs), sp.sources*sp.perSource)
		}
		for _, p := range in.pairs {
			if p.S == p.T || g.HasEdge(p.S, p.T) {
				t.Errorf("%s: invalid pair %v", sp.name, p)
			}
		}
		reads, writes := 0, 0
		for _, o := range in.open {
			if o.kind == opDelta {
				writes++
			} else {
				reads++
			}
		}
		if tail(reads, 9900) < minTail {
			t.Errorf("%s: %d open-loop reads cannot support p99", sp.name, reads)
		}
		if sp.writeRate > 0 && tail(writes, 9000) < minTail {
			t.Errorf("%s: %d writes cannot support p90", sp.name, writes)
		}
		if sp.probeWrites > 0 && tail(len(in.probeDeltas), 9000) < minTail {
			t.Errorf("%s: %d probe writes cannot support p90", sp.name, len(in.probeDeltas))
		}
		for _, ds := range [][]edge{in.deltas, in.probeDeltas} {
			checkDeltas(t, sp.name, g, in.pairs, ds)
		}
	}
}

func checkDeltas(t *testing.T, name string, g *af.Graph, pairs []pair, ds []edge) {
	t.Helper()
	isPair := map[[2]af.Node]bool{}
	for _, p := range pairs {
		isPair[canon(p.S, p.T)] = true
	}
	addedAt := map[[2]af.Node]int{}
	for i, d := range ds {
		e := canon(d.u, d.v)
		if d.add {
			if d.u == d.v || g.HasEdge(d.u, d.v) || isPair[e] {
				t.Fatalf("%s: delta %d adds %v", name, i, e)
			}
			addedAt[e] = i
			continue
		}
		at, ok := addedAt[e]
		if !ok || i-at < deltaKeep {
			t.Fatalf("%s: delta %d removes %v, added at %d (ok=%v)", name, i, e, at, ok)
		}
		delete(addedAt, e)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to this code: the same
// workloads, each stating the offered rate the code uses, and the same
// metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		sp, err := specByName(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		if rate := fmt.Sprintf("open loop %g req/s", sp.openRate); !strings.Contains(w.Why, rate) {
			t.Errorf("%s: why %q does not state %q", w.Name, w.Why, rate)
		}
		if sp.writeRate > 0 && !strings.Contains(w.Why, fmt.Sprintf("%g single-edge deltas/s", sp.writeRate)) {
			t.Errorf("%s: why %q does not state the write rate %g/s", w.Name, w.Why, sp.writeRate)
		}
	}
	for _, set := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		m := map[string]metric{}
		for _, e := range set.json {
			m[e.Name] = metric{Unit: e.Unit}
		}
		if len(m) != len(set.json) {
			t.Errorf("%s: duplicate metric names", set.name)
		}
		if err := checkMetrics(m, set.defs); err != nil {
			t.Errorf("%s: %v", set.name, err)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(64, 1.1)
	if z.cdf[len(z.cdf)-1] != 1 {
		t.Fatalf("cdf ends at %v", z.cdf[len(z.cdf)-1])
	}
	if head := z.cdf[0]; head < 0.15 || head > 0.3 {
		t.Errorf("Zipf 1.1 over 64: top rank has %v of the mass", head)
	}
}
