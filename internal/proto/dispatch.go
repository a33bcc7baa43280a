package proto

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/server"
)

// Dispatcher maps decoded requests onto one server.Server and shapes
// replies. It is transport-agnostic, stateless and safe for concurrent
// use: the pipe transport (cmd/afserve) and the HTTP transport
// (internal/proto/httpapi) drive the same Dispatcher, so a request
// produces the same reply bytes on either, and a reply depends only on
// its request (and the served graph's epoch), never on other traffic.
//
// Parameter defaults (solve's α/ε/N and caps, topk's budget, pmaxest's
// stopping-rule knobs) and invited-set validation live in the server,
// which the public facade calls too, so the dispatcher answers what the
// facade would by construction. Only the wire's own default — trials
// for "acceptance" and "pmax" — is resolved here.
type Dispatcher struct {
	sv *server.Server
}

// NewDispatcher returns a dispatcher answering against sv.
func NewDispatcher(sv *server.Server) *Dispatcher {
	return &Dispatcher{sv: sv}
}

// defaultTrials is the draw count for "acceptance" and "pmax" when the
// request omits trials.
const defaultTrials = 20000

// topkQuery builds the server query for a "topk"/"topkrefine" request.
func topkQuery(req Request) server.TopKQuery {
	return server.NewTopKQuery(req.S, req.Targets, req.K, server.TopKOptions{
		Budget:       req.Budget,
		Realizations: req.Realizations,
		MaxDraws:     req.MaxDraws,
	})
}

// DispatchLine decodes and answers one request line.
func (d *Dispatcher) DispatchLine(ctx context.Context, line []byte) Response {
	req, errResp := DecodeRequest(line)
	if errResp != nil {
		return *errResp
	}
	return d.Dispatch(ctx, req)
}

// Dispatch answers one decoded request. The reply's Code classifies
// failures for the transport; its body is transport-independent.
func (d *Dispatcher) Dispatch(ctx context.Context, req Request) Response {
	resp := Response{ID: req.ID, Op: req.Op}
	trials := req.Trials
	if trials <= 0 {
		trials = defaultTrials
	}
	var result any
	var err error
	switch req.Op {
	case "solve":
		result, err = d.sv.Solve(ctx, req.S, req.T, server.Options{
			Alpha: req.Alpha, Eps: req.Eps, N: req.N, Realizations: req.Realizations,
		})
	case "solvemax":
		// A "budgets" list answers the whole sweep from one pool fold and
		// two batched coverage queries; "budget" answers a single solve.
		if len(req.Budgets) > 0 {
			result, err = d.sv.SolveMaxBudgets(ctx, req.S, req.T, req.Budgets, req.Realizations)
		} else {
			result, err = d.sv.SolveMax(ctx, req.S, req.T, req.Budget, req.Realizations)
		}
	case "acceptance":
		var f float64
		f, err = d.sv.AcceptanceProbability(ctx, req.S, req.T, req.Invited, trials)
		result = map[string]float64{"f": f}
	case "pmax":
		var f float64
		f, err = d.sv.Pmax(ctx, req.S, req.T, trials)
		result = map[string]float64{"pmax": f}
	case "pmaxest":
		var est server.PmaxEstimate
		est, err = d.sv.PmaxEstimate(ctx, req.S, req.T, req.Eps, req.N, req.Trials)
		result = map[string]any{
			"pmax": est.Value, "draws": est.Draws, "reused": est.Reused,
			"sampled": est.Sampled, "truncated": est.Truncated,
		}
	case "topk":
		result, err = d.sv.TopK(ctx, topkQuery(req))
	case "topkrefine":
		// Stateless: the request carries the run's whole query, so the
		// refined reply is the topk at maxdraws+extradraws by construction.
		var q server.TopKQuery
		if q, err = topkQuery(req).Refine(req.ExtraDraws); err == nil {
			result, err = d.sv.TopK(ctx, q)
		}
	case "delta":
		// Mutate the served graph in place: cached pairs are migrated
		// across the new epoch by repair, not discarded. Requests already
		// in flight answer at the epoch they started on.
		gd := &graph.Delta{}
		for _, e := range req.Add {
			gd.Add = append(gd.Add, graph.Edge{U: e[0], V: e[1]})
		}
		for _, e := range req.Remove {
			gd.Remove = append(gd.Remove, graph.Edge{U: e[0], V: e[1]})
		}
		result, err = d.sv.ApplyDelta(ctx, gd, nil)
	case "stats":
		st := d.sv.Stats()
		if o := d.sv.Obs(); o != nil {
			result = StatsWithMetrics{ServerStats: st, Metrics: o.Registry.Snapshot()}
		} else {
			result = st
		}
	default:
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
		resp.code = CodeUnknownOp
		return resp
	}
	if err != nil {
		resp.Error = err.Error()
		resp.code = CodeError
		if errors.Is(err, server.ErrOverloaded) {
			resp.code = CodeOverloaded
		}
		return resp
	}
	resp.OK = true
	resp.Result = result
	return resp
}
