package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/server"
)

// WarmRestartResult summarizes the warm-restart experiment: the same
// pool-bound workload served by a cold process (every pool sampled draw
// by draw) and by a restarted process that loaded the first one's
// snapshot flush from disk.
type WarmRestartResult struct {
	Pairs int
	// Cold and Warm are the wall-clock times of the two runs; Speedup is
	// Cold/Warm. The workload is pool-bound (SolveMax + Pmax), so the gap
	// is dominated by sampling avoided through snapshot loads.
	Cold    time.Duration
	Warm    time.Duration
	Speedup float64
	// SpillBytes is the size of the flushed state the warm run started
	// from; SpillLoads and DrawsSaved are its ledgered load activity.
	SpillBytes int64
	SpillLoads int64
	DrawsSaved int64
	// Identical reports that every warm answer was byte-identical to its
	// cold counterpart — the purity invariant across a restart.
	Identical bool
}

// WarmRestart measures what pool persistence buys across a restart: it
// serves a pool-bound workload (a SolveMax budget sweep plus a Pmax per
// pair) on a spill-enabled server, flushes every pool to dir (the
// graceful-shutdown path), then replays the identical workload on a
// fresh server warmed from dir — the restarted process. Answers must be
// byte-identical (Identical); the timing gap is the resampling the
// snapshots avoided. cfg.Server is ignored: the experiment owns both
// server lifetimes.
func WarmRestart(ctx context.Context, cfg Config, dir string) (*WarmRestartResult, error) {
	c := cfg.withDefaults()
	if len(c.Pairs) == 0 {
		return nil, fmt.Errorf("%w: no pairs", ErrNoPairs)
	}
	newServer := func() *server.Server {
		return server.New(c.Graph, c.Weights, server.Config{
			Seed: c.Seed, Workers: c.Workers, SpillDir: dir, Obs: c.Obs,
		})
	}
	workload := func(sv *server.Server) ([]string, time.Duration, error) {
		var out []string
		budgets := []int{1, 2, 5, 10}
		start := time.Now()
		for _, p := range c.Pairs {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			results, err := sv.SolveMaxBudgets(ctx, p.S, p.T, budgets, c.MaxRealizations)
			if err != nil {
				out = append(out, fmt.Sprintf("smax(%d,%d)=err", p.S, p.T))
			} else {
				for i, r := range results {
					out = append(out, fmt.Sprintf("smax(%d,%d,%d)=%v|%.12f|%.12f",
						p.S, p.T, budgets[i], r.Invited, r.TrainF, r.EstimatedF))
				}
			}
			pm, err := sv.Pmax(ctx, p.S, p.T, c.EvalTrials)
			out = append(out, fmt.Sprintf("pmax(%d,%d)=%.12f/%v", p.S, p.T, pm, err != nil))
		}
		return out, time.Since(start), nil
	}

	cold := newServer()
	coldAns, coldDur, err := workload(cold)
	if err != nil {
		return nil, err
	}
	if err := cold.SpillAll(); err != nil {
		return nil, fmt.Errorf("eval: spill flush: %w", err)
	}
	flushed := cold.Stats()

	warm := newServer()
	if _, err := warm.Warm(); err != nil {
		return nil, fmt.Errorf("eval: warming: %w", err)
	}
	warmAns, warmDur, err := workload(warm)
	if err != nil {
		return nil, err
	}
	warmStats := warm.Stats()

	res := &WarmRestartResult{
		Pairs:      len(c.Pairs),
		Cold:       coldDur,
		Warm:       warmDur,
		SpillBytes: flushed.SpillBytes,
		SpillLoads: warmStats.SpillLoads,
		DrawsSaved: warmStats.SpillDrawsSaved,
		Identical:  len(coldAns) == len(warmAns),
	}
	if warmDur > 0 {
		res.Speedup = float64(coldDur) / float64(warmDur)
	}
	for i := 0; res.Identical && i < len(coldAns); i++ {
		res.Identical = coldAns[i] == warmAns[i]
	}
	return res, nil
}
