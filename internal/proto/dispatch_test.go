package proto

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/weights"
)

// refineGraph is the seven-node graph the afserve goldens use: source 0
// has five non-adjacent targets, so a k=2 topk can be truncated.
const refineGraph = "0 1\n0 2\n1 3\n1 4\n2 3\n2 4\n3 5\n4 5\n5 6\n6 7\n"

// topkLine renders a topk-family request over refineGraph's five
// targets; extra is appended verbatim (maxdraws, extradraws).
func topkLine(op, extra string) string {
	return `{"op":"` + op + `","s":0,"targets":[3,4,5,6,7],"k":2,"budget":2,"realizations":2048` + extra + `}`
}

// topkAnswer dispatches line and returns its TopKResult. With
// maskSpent, DrawsSpent is zeroed: it is the one field that
// legitimately depends on which pools were already warm.
func topkAnswer(t *testing.T, d *Dispatcher, line string, maskSpent bool) (*server.TopKResult, string) {
	t.Helper()
	resp := d.DispatchLine(context.Background(), []byte(line))
	if !resp.OK {
		t.Fatalf("%s: %s", line, resp.Error)
	}
	res := *resp.Result.(*server.TopKResult)
	if maskSpent {
		res.DrawsSpent = 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return &res, string(b)
}

func refineDispatcher(t *testing.T) *Dispatcher {
	t.Helper()
	g, err := gen.ReadEdgeList(strings.NewReader(refineGraph))
	if err != nil {
		t.Fatal(err)
	}
	return NewDispatcher(server.New(g, weights.NewDegree(g), server.Config{Seed: 7, Workers: 2}))
}

// TestTopKRefineFreshDispatcher: a topkrefine needs no earlier topk on
// the same dispatcher — it answers exactly the topk at
// maxdraws+extradraws, byte for byte (both runs are cold).
func TestTopKRefineFreshDispatcher(t *testing.T) {
	_, refined := topkAnswer(t, refineDispatcher(t), topkLine("topkrefine", `,"maxdraws":6000,"extradraws":4000`), false)
	_, cold := topkAnswer(t, refineDispatcher(t), topkLine("topk", `,"maxdraws":10000`), false)
	if refined != cold {
		t.Errorf("fresh refine differs from topk at 10000\nrefine %s\ncold   %s", refined, cold)
	}
}

// TestTopKRefineIgnoresOtherTraffic: an exhaustive topk with the same
// signature between a budgeted topk and its refine must not change the
// refine's answer — it equals a cold topk at the combined budget.
func TestTopKRefineIgnoresOtherTraffic(t *testing.T) {
	d := refineDispatcher(t)
	topkAnswer(t, d, topkLine("topk", `,"maxdraws":6000`), false)
	topkAnswer(t, d, topkLine("topk", ""), false)
	res, refined := topkAnswer(t, d, topkLine("topkrefine", `,"maxdraws":6000,"extradraws":4000`), true)
	_, cold := topkAnswer(t, refineDispatcher(t), topkLine("topk", `,"maxdraws":10000`), true)
	if refined != cold {
		t.Errorf("interleaved refine differs from a cold topk at 10000\nrefine %s\ncold   %s", refined, cold)
	}
	if !res.Truncated || res.PlannedDraws >= res.ExhaustiveDraws {
		t.Errorf("refine to 10000 planned %d of %d draws (truncated=%v), want a truncated plan",
			res.PlannedDraws, res.ExhaustiveDraws, res.Truncated)
	}
}

// TestTopKRefineExhaustiveStays: refining a maxdraws-0 (exhaustive)
// query stays exhaustive, and a zero top-up is refused.
func TestTopKRefineExhaustiveStays(t *testing.T) {
	d := refineDispatcher(t)
	res, refined := topkAnswer(t, d, topkLine("topkrefine", `,"extradraws":4000`), true)
	if res.Truncated || res.PlannedDraws != res.ExhaustiveDraws {
		t.Errorf("refined exhaustive query planned %d of %d draws (truncated=%v)",
			res.PlannedDraws, res.ExhaustiveDraws, res.Truncated)
	}
	if _, full := topkAnswer(t, d, topkLine("topk", ""), true); refined != full {
		t.Errorf("refined exhaustive query differs from the exhaustive topk\nrefine %s\ntopk   %s", refined, full)
	}
	resp := d.DispatchLine(context.Background(), []byte(topkLine("topkrefine", `,"maxdraws":6000,"extradraws":0`)))
	if resp.OK || resp.Code() != CodeError || !strings.Contains(resp.Error, "must be positive") {
		t.Errorf("zero extradraws: %+v code %v", resp, resp.Code())
	}
}
