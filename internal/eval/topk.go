package eval

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/tablewriter"
)

// TopKReport summarizes the batched ranking experiment: one exhaustive
// TopK run (every candidate at full effort — byte-identical, by
// construction, to independent SolveMax calls) against a scheduled run
// whose draw budget is a quarter of the exhaustive bill. The scheduled
// run must find (nearly) the same winners for a fraction of the draws.
type TopKReport struct {
	Source     graph.Node
	Candidates int
	K          int
	Budget     int
	// Effort is the full per-candidate pool size L.
	Effort int64
	// ExhaustiveDraws / ScheduledDraws are the measured pool growth each
	// run caused; DrawRatio is their quotient — the batching win.
	ExhaustiveDraws int64
	ScheduledDraws  int64
	DrawRatio       float64
	// ScheduledRounds is the successive-halving depth of the budgeted
	// run; Truncated reports its winners stopped below full effort.
	ScheduledRounds int
	Truncated       bool
	// PrecisionAtK is |scheduled winners ∩ exhaustive winners| / k —
	// the ranking quality the cheaper schedule retained.
	PrecisionAtK float64
	// Identical reports that the exhaustive batch returned byte-identical
	// scores and invitation sets to an explicit per-target SolveMax loop
	// on a third fresh server.
	Identical bool
	// Frozen counts candidates the scheduled run stopped early (the
	// sublinearity at work); Errored counts candidates that failed to
	// score at all (unreachable or adjacent targets).
	Frozen  int
	Errored int
}

// topKTargets collects the distinct T endpoints of cfg.Pairs as the
// candidate list for source s, skipping s itself.
func topKTargets(pairs []Pair, s graph.Node) []graph.Node {
	seen := make(map[graph.Node]bool, len(pairs))
	targets := make([]graph.Node, 0, len(pairs))
	for _, p := range pairs {
		if p.T == s || seen[p.T] {
			continue
		}
		seen[p.T] = true
		targets = append(targets, p.T)
	}
	return targets
}

// TopKRanking measures what the scheduled batched ranking buys: the
// source is cfg.Pairs[0].S and the candidates are the distinct targets
// of cfg.Pairs. Three fresh servers share the seed: one serves the batch
// exhaustively (MaxDraws = 0), one serves it under a quarter of the
// exhaustive draw bill, and one answers an explicit per-target SolveMax
// loop to verify the exhaustive batch is byte-identical to k independent
// queries. cfg.Server is ignored — the experiment owns its servers so
// the draw ledgers are cleanly attributable. cfg.EvalTrials sets the
// full per-candidate effort L.
func TopKRanking(ctx context.Context, cfg Config, k, budget int) (*TopKReport, error) {
	c := cfg.withDefaults()
	if len(c.Pairs) == 0 {
		return nil, fmt.Errorf("%w: no pairs", ErrNoPairs)
	}
	if k <= 0 || budget <= 0 {
		return nil, fmt.Errorf("eval: topk needs positive k and budget, got %d, %d", k, budget)
	}
	s := c.Pairs[0].S
	targets := topKTargets(c.Pairs, s)
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: no distinct targets", ErrNoPairs)
	}
	newServer := func() *server.Server {
		return server.New(c.Graph, c.Weights, server.Config{Seed: c.Seed, Workers: c.Workers, Obs: c.Obs})
	}
	q := server.TopKQuery{
		S: s, Targets: targets, K: k, Budget: budget, Realizations: c.EvalTrials,
	}
	full, err := newServer().TopK(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("eval: exhaustive topk: %w", err)
	}
	sq := q
	sq.MaxDraws = full.ExhaustiveDraws / 4
	sched, err := newServer().TopK(ctx, sq)
	if err != nil {
		return nil, fmt.Errorf("eval: scheduled topk: %w", err)
	}
	res := &TopKReport{
		Source: s, Candidates: len(targets), K: k, Budget: budget,
		Effort:          c.EvalTrials,
		ExhaustiveDraws: full.DrawsSpent,
		ScheduledDraws:  sched.DrawsSpent,
		ScheduledRounds: sched.Rounds,
		Truncated:       sched.Truncated,
		Identical:       true,
	}
	if res.ScheduledDraws > 0 {
		res.DrawRatio = float64(res.ExhaustiveDraws) / float64(res.ScheduledDraws)
	}
	for _, cand := range sched.Candidates {
		if cand.Frozen {
			res.Frozen++
		}
		if cand.Err != "" {
			res.Errored++
		}
	}
	// Precision@k of the budgeted ranking against the exhaustive one.
	want := make(map[graph.Node]bool, k)
	for _, w := range full.Winners {
		want[w.Target] = true
	}
	hits := 0
	for _, w := range sched.Winners {
		if want[w.Target] {
			hits++
		}
	}
	if n := len(full.Winners); n > 0 {
		res.PrecisionAtK = float64(hits) / float64(n)
	}
	// Byte-identity: the exhaustive batch must equal an explicit loop of
	// independent SolveMax queries on a fresh server with the same seed.
	loop := newServer()
	for i, t := range targets {
		cand := full.Candidates[i]
		mres, err := loop.SolveMax(ctx, s, t, budget, c.EvalTrials)
		if err != nil {
			if cand.Err == "" {
				res.Identical = false
			}
			continue
		}
		if cand.Err != "" || cand.Score != mres.EstimatedF || cand.TrainF != mres.TrainF ||
			cand.Invited == nil || !slices.Equal(cand.Invited, mres.Invited) {
			res.Identical = false
		}
	}
	return res, nil
}

// RenderTopK renders the batched ranking experiment for one dataset.
func RenderTopK(dataset string, res *TopKReport) *tablewriter.Table {
	t := tablewriter.New(
		fmt.Sprintf("top-k ranking (%s): scheduled 1/4-budget batch vs exhaustive, n=%d k=%d b=%d L=%d",
			dataset, res.Candidates, res.K, res.Budget, res.Effort),
		"exhaustive draws", "scheduled draws", "ratio", "rounds", "frozen", "precision@k", "identical", "truncated")
	t.AddRow(res.ExhaustiveDraws, res.ScheduledDraws, res.DrawRatio,
		res.ScheduledRounds, res.Frozen, res.PrecisionAtK, res.Identical, res.Truncated)
	return t
}
