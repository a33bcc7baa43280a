// Package maxaf implements the *maximum* active friending variant the
// paper positions itself against (Sec. I–II; Yang et al. KDD'13, Yuan et
// al.): given an invitation budget b, maximize the acceptance probability
// f(I) subject to |I| ≤ b.
//
// It reuses the RAF machinery: sample a pool of realizations (Def. 1),
// then greedily commit whole backward paths t(g) — cheapest marginal
// union first — while the budget lasts (setcover.GreedyBudget). Under the
// linear threshold model the objective is supermodular in I (Yuan et
// al.), so node-wise greedy has no guarantee; covering realizations
// whole sidesteps that, exactly as RAF's minimization does.
package maxaf

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/obs"
	"repro/internal/setcover"
)

// DefaultRealizations is the pool size used when a caller passes
// Realizations ≤ 0.
const DefaultRealizations = 50000

// Realizations resolves a requested pool size: l itself when positive,
// DefaultRealizations otherwise.
func Realizations(l int64) int64 {
	if l <= 0 {
		return DefaultRealizations
	}
	return l
}

// Config parameterizes a Solve call.
type Config struct {
	// Budget is the maximum invitation-set size; must fit the target
	// (budget ≥ 1).
	Budget int
	// Realizations is the pool size l (default DefaultRealizations).
	Realizations int64
	// Seed and Workers control sampling.
	Seed    int64
	Workers int
}

// Result is the budgeted solution.
type Result struct {
	// Invited is the chosen invitation set (|Invited| ≤ Budget).
	Invited *graph.NodeSet
	// CoveredFraction is the fraction of the sampled pool covered — the
	// pool's estimate of f(Invited).
	CoveredFraction float64
	// PoolType1 is the number of type-1 realizations sampled.
	PoolType1 int
}

// Solve maximizes estimated acceptance probability under the budget,
// sampling a fresh pool through the engine. For repeated solves on one
// instance, sample a pool once (e.g. via an engine Session) and call
// SolveFromPool.
func Solve(ctx context.Context, in *ltm.Instance, cfg Config) (*Result, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("maxaf: budget %d must be positive", cfg.Budget)
	}
	pool, err := engine.New(in).SamplePool(ctx, Realizations(cfg.Realizations), cfg.Workers, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return SolveFromPool(ctx, in, cfg.Budget, pool)
}

// SolveFromPool runs the budgeted max-coverage greedy against an existing
// realization pool, through the pool's cached set-cover family: repeated
// budget solves on one pool (budget searches, server traffic) fold and
// index the paths exactly once. A trace on ctx (obs.WithTrace) gets
// family_fold and solve stage spans; tracing off costs nothing.
func SolveFromPool(ctx context.Context, in *ltm.Instance, budget int, pool *engine.Pool) (*Result, error) {
	res, _, err := SolveFromPoolSolver(ctx, in, budget, pool, nil)
	return res, err
}

// SolveFromPoolSolver is SolveFromPool with caller-held solver scratch:
// the batched top-k path solves many candidates' pools in turn, and
// rebinding one Solver per pool amortizes the marginal/bucket/bitset
// allocations across the whole batch. A nil solver allocates fresh; the
// (possibly new) solver is returned for the next pool. Results are
// identical to SolveFromPool's — Solver.Rebind guarantees rebound
// scratch solves exactly like fresh scratch.
func SolveFromPoolSolver(ctx context.Context, in *ltm.Instance, budget int, pool *engine.Pool, solver *setcover.Solver) (*Result, *setcover.Solver, error) {
	if budget <= 0 {
		return nil, solver, fmt.Errorf("maxaf: budget %d must be positive", budget)
	}
	if pool.NumType1() == 0 {
		return nil, solver, fmt.Errorf("%w: no type-1 realization in %d draws", core.ErrTargetUnreachable, pool.Total())
	}
	fam, err := pool.FamilyCtx(ctx)
	if err != nil {
		return nil, solver, fmt.Errorf("maxaf: set family: %w", err)
	}
	if solver == nil {
		solver = setcover.NewSolver(fam)
	} else {
		solver.Rebind(fam)
	}
	solver.SetTrace(obs.TraceFrom(ctx))
	sol, err := solver.SolveBudget(budget)
	if err != nil {
		return nil, solver, fmt.Errorf("maxaf: budgeted cover: %w", err)
	}
	invited := graph.NewNodeSet(in.Graph().NumNodes())
	for _, v := range sol.Union {
		invited.Add(v)
	}
	return &Result{
		Invited:         invited,
		CoveredFraction: float64(sol.Covered) / float64(pool.Total()),
		PoolType1:       pool.NumType1(),
	}, solver, nil
}

// SolveBudgetsFromPool runs the budgeted greedy for every budget against
// one pool, amortizing everything amortizable: the pool's set-cover
// family is folded once (cached on the pool), a single Solver's scratch
// is reused across the whole sweep, and the in-pool covered fractions are
// re-measured in one batched coverage query (Index.CoverageCounts)
// against the pool's inverted index instead of one scan per budget.
// Results are identical to calling SolveFromPool per budget.
func SolveBudgetsFromPool(ctx context.Context, in *ltm.Instance, budgets []int, pool *engine.Pool) ([]*Result, error) {
	if len(budgets) == 0 {
		return nil, fmt.Errorf("maxaf: no budgets given")
	}
	if pool.NumType1() == 0 {
		return nil, fmt.Errorf("%w: no type-1 realization in %d draws", core.ErrTargetUnreachable, pool.Total())
	}
	fam, err := pool.FamilyCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("maxaf: set family: %w", err)
	}
	solver := setcover.NewSolver(fam)
	solver.SetTrace(obs.TraceFrom(ctx))
	results := make([]*Result, len(budgets))
	sets := make([]*graph.NodeSet, len(budgets))
	n := in.Graph().NumNodes()
	for i, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("maxaf: budget %d must be positive", b)
		}
		sol, err := solver.SolveBudget(b)
		if err != nil {
			return nil, fmt.Errorf("maxaf: budgeted cover: %w", err)
		}
		invited := graph.NewNodeSet(n)
		for _, v := range sol.Union {
			invited.Add(v)
		}
		sets[i] = invited
		results[i] = &Result{Invited: invited, PoolType1: pool.NumType1()}
	}
	// One batched postings traversal re-measures every chosen set; the
	// counts coincide with the greedy's own Covered tallies (regression-
	// tested), so this is a cross-check as much as a measurement.
	counts := pool.Index().CoverageCounts(sets)
	for i, c := range counts {
		results[i].CoveredFraction = float64(c) / float64(pool.Total())
	}
	return results, nil
}
