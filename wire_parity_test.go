package activefriending

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/proto"
)

// TestWireMirrorsFacade pins the wire format to the facade result
// types (wire.go documents this test by name): every op whose answer
// is a result struct must hand the dispatcher a value of the facade's
// own type, and its JSON must survive a round trip through that type
// byte for byte — so the JSON the HTTP and pipe transports emit is
// exactly the JSON a facade user would marshal, and a wire-only mirror
// struct reintroduced on either side fails here instead of on a client.
func TestWireMirrorsFacade(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader(goldenGraph))
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(g, ServerConfig{Seed: 7, Workers: 1})
	d := proto.NewDispatcher(sv.sv)
	ctx := context.Background()

	// roundTrip checks that res is a *T (or a T for value types) and
	// that its JSON decodes into a fresh T and re-encodes identically.
	roundTrip := func(name string, res, fresh any) {
		t.Helper()
		if got, want := reflect.TypeOf(res), reflect.TypeOf(fresh); got != want {
			t.Errorf("%s: wire result is %v, facade type is %v", name, got, want)
			return
		}
		wire, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		dst := reflect.New(reflect.TypeOf(fresh))
		if err := json.Unmarshal(wire, dst.Interface()); err != nil {
			t.Fatalf("%s: facade type cannot decode the wire bytes: %v", name, err)
		}
		back, err := json.Marshal(dst.Elem().Interface())
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if string(back) != string(wire) {
			t.Errorf("%s: JSON diverged through the facade type\nwire   %s\nfacade %s", name, wire, back)
		}
	}

	cases := []struct {
		name  string
		query string
		fresh any
	}{
		{"Solution", `{"op":"solve","s":0,"t":5,"alpha":0.3,"eps":0.1,"n":50,"realizations":4000}`, &Solution{}},
		{"MaxSolution", `{"op":"solvemax","s":0,"t":5,"budget":2,"realizations":4000}`, &MaxSolution{}},
		{"MaxSolution budgets", `{"op":"solvemax","s":0,"t":5,"budgets":[1,2,3],"realizations":4000}`, []*MaxSolution{}},
		{"TopKResult", `{"op":"topk","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048,"maxdraws":6000}`, &TopKResult{}},
		{"TopKResult refine", `{"op":"topkrefine","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048,"maxdraws":6000,"extradraws":4000}`, &TopKResult{}},
		{"DeltaSummary", `{"op":"delta","add":[[6,7],[5,7]]}`, &DeltaSummary{}},
		{"ServerStats", `{"op":"stats"}`, ServerStats{}},
	}
	for _, c := range cases {
		resp := d.DispatchLine(ctx, []byte(c.query))
		if !resp.OK {
			t.Fatalf("%s: %s", c.name, resp.Error)
		}
		roundTrip(c.name, resp.Result, c.fresh)
	}
	// The nested element types are the facade's too.
	roundTrip("TopKCandidate", TopKCandidate{Target: 3, Score: 0.5}, TopKCandidate{})
	roundTrip("ServerKindStats", sv.Stats().Solve, ServerKindStats{})

	// A metrics-armed server's stats reply embeds the facade ledger
	// type, so its keys stay the flat ServerStats keys.
	f, ok := reflect.TypeOf(proto.StatsWithMetrics{}).FieldByName("ServerStats")
	if !ok || !f.Anonymous || f.Type != reflect.TypeOf(ServerStats{}) {
		t.Errorf("proto.StatsWithMetrics must embed the facade ServerStats, got %+v", f)
	}
}
