package server

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/maxaf"
	"repro/internal/rank"
	"repro/internal/setcover"
)

// TopKQuery is one batched ranking request: rank Targets as friending
// candidates for source S and surface the best K, spending at most
// MaxDraws realization draws across the whole batch.
type TopKQuery struct {
	S       graph.Node
	Targets []graph.Node
	// K is how many winners must be scored at full effort.
	K int
	// Budget is the invitation budget each candidate is solved under
	// (the paper's b).
	Budget int
	// Realizations is the full per-candidate effort L (≤ 0 selects
	// maxaf.DefaultRealizations); a winner of an untruncated run is
	// scored at exactly this pool size.
	Realizations int64
	// MaxDraws bounds the batch's total draw bill (0 = unlimited). Any
	// budget that admits the exhaustive bill — 2·L per candidate —
	// degenerates to it, making the answers byte-identical to
	// len(Targets) independent SolveMax calls.
	MaxDraws int64
}

// topkRun is a finished ranking before shaping: per-candidate last
// solves (index-aligned with the query's targets), the schedule's
// outcome and the measured draw bill. Coalesced callers share one run
// and each shapes its own TopKResult from it.
type topkRun struct {
	q      TopKQuery
	trainF []float64
	sets   []*graph.NodeSet
	rr     *rank.Result
	spent  int64
}

func (r *topkRun) result() *TopKResult {
	res := &TopKResult{
		Source:          r.q.S,
		K:               r.q.K,
		Candidates:      make([]TopKCandidate, len(r.rr.Candidates)),
		Ranked:          slices.Clone(r.rr.Ranked),
		Rounds:          r.rr.Rounds,
		DrawsSpent:      r.spent,
		PlannedDraws:    r.rr.Plan.Cost,
		ExhaustiveDraws: r.rr.Plan.ExhaustiveCost,
		Truncated:       r.rr.Plan.Truncated,
		query:           r.q,
	}
	for i, rc := range r.rr.Candidates {
		c := &res.Candidates[i]
		*c = TopKCandidate{Target: r.q.Targets[i], Score: rc.Score, TrainF: r.trainF[i],
			Effort: rc.Effort, Rounds: rc.Rounds, Frozen: rc.Frozen}
		if r.sets[i] != nil {
			c.Invited = r.sets[i].Members()
		}
		if rc.Err != nil {
			c.Err = rc.Err.Error()
		}
	}
	for _, wi := range res.Ranked[:min(r.q.K, len(res.Ranked))] {
		res.Winners = append(res.Winners, res.Candidates[wi])
	}
	return res
}

// TopK serves one batched top-k request end to end as a single scheduled
// computation. A rank.Plan (successive halving) decides how much effort
// each surviving candidate receives per round; every candidate's session
// lives in the ordinary pair cache, so the byte budget, eviction, spill
// tier and delta migration all apply per candidate exactly as they do to
// single-pair queries — an evicted candidate resamples (or restores) to
// byte-identical pools, and the measured DrawsSpent ledgers the extra
// bill. Within the batch, one solver scratch pool serves every
// candidate's greedy (setcover.Solver.Rebind) and the engine's shared
// chunk arenas serve every pool growth.
//
// Purity: every candidate's score at effort l is the same pure function
// of (Seed, S, target, Budget, l) that SolveMax computes, so a full-
// budget run returns byte-identical winners, scores and invitation sets
// to len(Targets) independent SolveMax calls, for any worker count and
// any eviction schedule. TopK goes through the query pipeline without a
// pair acquisition of its own: each candidate acquires its own pair.
func (sv *Server) TopK(ctx context.Context, q TopKQuery) (*TopKResult, error) {
	run, err := query(ctx, sv, KindTopK, q.S, q.S, pairParams(q.Targets, q.K, q.Budget, q.Realizations, q.MaxDraws), func(ctx context.Context) (*topkRun, error) {
		return sv.topK(ctx, q)
	})
	if err != nil {
		return nil, err
	}
	return run.result(), nil
}

func (sv *Server) topK(ctx context.Context, q TopKQuery) (_ *topkRun, err error) {
	n := len(q.Targets)
	if n == 0 {
		return nil, fmt.Errorf("server: topk with no targets")
	}
	if q.K <= 0 {
		return nil, fmt.Errorf("server: topk k=%d must be positive", q.K)
	}
	if q.Budget <= 0 {
		return nil, fmt.Errorf("server: topk budget %d must be positive", q.Budget)
	}
	run := &topkRun{q: q, trainF: make([]float64, n), sets: make([]*graph.NodeSet, n)}
	var spent atomic.Int64
	var solvers sync.Pool // *setcover.Solver scratch shared across the batch
	score := func(ctx context.Context, i int, effort int64) (float64, error) {
		e, err := sv.acquire(ctx, KindTopK, q.S, q.Targets[i])
		if err != nil {
			return 0, err
		}
		defer sv.release(e)
		eng := e.Core.Engine()
		before := eng.PoolDraws()
		defer func() { spent.Add(eng.PoolDraws() - before) }()
		pool, err := e.Core.Pool(ctx, effort)
		if err != nil {
			return 0, err
		}
		var solver *setcover.Solver
		if s, ok := solvers.Get().(*setcover.Solver); ok {
			solver = s
		}
		mres, solver, err := maxaf.SolveFromPoolSolver(ctx, e.Core.Instance(), q.Budget, pool, solver)
		if solver != nil {
			solvers.Put(solver)
		}
		if err != nil {
			return 0, err
		}
		f, err := e.Eval.EstimateF(ctx, mres.Invited, effort)
		if err != nil {
			return 0, err
		}
		// Index-disjoint writes: the scheduler scores each candidate at
		// most once per round, so no two goroutines touch slot i.
		run.trainF[i], run.sets[i] = mres.CoveredFraction, mres.Invited
		return f, nil
	}
	run.rr, err = rank.Run(ctx, rank.Config{
		Candidates: n,
		K:          q.K,
		FullEffort: maxaf.Realizations(q.Realizations),
		MaxDraws:   q.MaxDraws,
		Workers:    sv.cfg.Workers,
	}, score)
	if err != nil {
		return nil, err
	}
	run.spent = spent.Load()
	return run, nil
}

// Refine returns the query a refinement with extraDraws more budget
// runs: a budgeted query's MaxDraws grows by extraDraws, and an
// exhaustive (MaxDraws = 0) one stays exhaustive. A budget that reaches
// the exhaustive bill needs no clamp — rank.NewPlan plans it as
// exhaustive.
func (q TopKQuery) Refine(extraDraws int64) (TopKQuery, error) {
	if extraDraws <= 0 {
		return q, fmt.Errorf("server: topk refine extraDraws=%d must be positive", extraDraws)
	}
	if q.MaxDraws != 0 {
		q.MaxDraws += extraDraws
	}
	return q, nil
}

// TopKRefine resumes a finished scheduled run with extraDraws more
// budget: the request is re-planned at the enlarged budget (see
// TopKQuery.Refine) and re-run against the same pair cache, where every
// pool the first run grew is still warm (or restorable) — so the
// refinement pays only the incremental draws of the deeper schedule. The
// anytime contract: the refined result equals what a cold run at the
// enlarged budget would have returned (purity), while DrawsSpent records
// only the top-up.
func (sv *Server) TopKRefine(ctx context.Context, prev *TopKResult, extraDraws int64) (*TopKResult, error) {
	if prev == nil || prev.query.Targets == nil {
		return nil, fmt.Errorf("server: topk refine needs a result returned by TopK")
	}
	q, err := prev.query.Refine(extraDraws)
	if err != nil {
		return nil, err
	}
	return sv.TopK(ctx, q)
}
