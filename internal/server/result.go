package server

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/maxaf"
)

// This file is the one declaration of every query's parameters, their
// defaults, and its answer. The public facade re-exports these types as
// aliases and the wire protocol marshals them directly, so a field's
// name and declaration order are its JSON key and position on the wire.

// Parameter defaults. A zero Options field, a zero ε₀ or N, a
// non-positive p_max draw cap and a non-positive top-k budget take these
// values; a non-positive pool size takes maxaf.DefaultRealizations.
const (
	DefaultAlpha           = 0.1
	DefaultEps             = 0.01
	DefaultN               = 100000
	DefaultMaxRealizations = 200000
	DefaultMaxPmaxDraws    = 2000000
	DefaultEps0            = 0.1
	DefaultTopKBudget      = 10
)

// Options configures Solve. The zero value solves with the paper's
// experimental defaults (α = 0.1, ε = 0.01, N = 100000) in the practical
// sampling regime.
type Options struct {
	// Alpha is the required fraction of p_max (default 0.1).
	Alpha float64
	// Eps is the accuracy slack (default 0.01): the guarantee is
	// f(I) ≥ (Alpha−Eps)·p_max with probability ≥ 1 − 2/N.
	Eps float64
	// N controls the success probability (default 100000).
	N float64
	// Seed fixes all randomness; Workers bounds parallelism (0 = CPUs).
	// A Server or Session ignores both in favor of its own streams.
	Seed    int64
	Workers int
	// MaxRealizations caps the sampled pool (default 200000; 0 keeps the
	// default — use Unbounded for the pure-theory sizing).
	MaxRealizations int64
	// MaxPmaxDraws caps the p_max estimation (default 2000000).
	MaxPmaxDraws int64
	// Realizations, when positive, skips the theoretical pool sizing and
	// uses exactly this many realizations (the practical regime of the
	// paper's Sec. IV-E). With a Session, a fixed Realizations across an
	// α-sweep means the pool is sampled exactly once.
	Realizations int64
	// Unbounded disables both caps: pool sizing follows Eq. 16 exactly.
	// Feasible only on small instances.
	Unbounded bool
}

// coreConfig resolves o's defaults into the RAF configuration.
func (o Options) coreConfig() core.Config {
	cfg := core.Config{
		Alpha:           o.Alpha,
		Eps:             o.Eps,
		N:               o.N,
		Seed:            o.Seed,
		Workers:         o.Workers,
		MaxRealizations: o.MaxRealizations,
		MaxPmaxDraws:    o.MaxPmaxDraws,
		OverrideL:       o.Realizations,
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Eps == 0 {
		cfg.Eps = DefaultEps
	}
	if cfg.N == 0 {
		cfg.N = DefaultN
	}
	if cfg.MaxRealizations == 0 {
		cfg.MaxRealizations = DefaultMaxRealizations
	}
	if cfg.MaxPmaxDraws == 0 {
		cfg.MaxPmaxDraws = DefaultMaxPmaxDraws
	}
	if o.Unbounded {
		cfg.MaxRealizations, cfg.MaxPmaxDraws = 0, 0
	}
	return cfg
}

// Solution is the output of Solve.
type Solution struct {
	// Invited is the invitation set I*, ascending, always containing the
	// target.
	Invited []graph.Node
	// PStar is the algorithm's estimate of p_max.
	PStar float64
	// VmaxSize is |V_max| (the α = 1 optimum size).
	VmaxSize int
	// Realizations is the pool size used; Covered of PoolType1 sampled
	// type-1 realizations are covered by Invited.
	Realizations int64
	PoolType1    int
	Covered      int
}

func newSolution(res *core.Result) *Solution {
	return &Solution{
		Invited:      res.Invited.Members(),
		PStar:        res.PStar,
		VmaxSize:     res.VmaxSize,
		Realizations: res.LUsed,
		PoolType1:    res.PoolType1,
		Covered:      res.Covered,
	}
}

// MaxSolution is the output of SolveMax.
type MaxSolution struct {
	// Invited is the chosen invitation set (size ≤ the budget).
	Invited []graph.Node
	// EstimatedF estimates f(Invited) on draws decorrelated from the pool
	// the greedy optimized over (the same stream family
	// AcceptanceProbability uses), so it is an unbiased measurement of the
	// returned set.
	EstimatedF float64
	// TrainF is the covered fraction of the solve pool itself — the
	// quantity the greedy maximized. It is optimistically biased (the set
	// was chosen to cover exactly these draws); the TrainF−EstimatedF gap
	// is the overfit margin.
	TrainF float64
}

// NewMaxSolution shapes a budgeted solve and its decorrelated estimate f
// of the chosen set.
func NewMaxSolution(res *maxaf.Result, f float64) *MaxSolution {
	return &MaxSolution{Invited: res.Invited.Members(), EstimatedF: f, TrainF: res.CoveredFraction}
}

// maxRun is a budgeted solve sweep before shaping: the solver results
// and the decorrelated estimate of each chosen set.
type maxRun struct {
	res []*maxaf.Result
	fs  []float64
}

func (r maxRun) solutions() []*MaxSolution {
	out := make([]*MaxSolution, len(r.res))
	for i, res := range r.res {
		out[i] = NewMaxSolution(res, r.fs[i])
	}
	return out
}

// PmaxEstimate is the outcome of an Algorithm 2 p_max estimate, with its
// draw accounting.
type PmaxEstimate struct {
	// Value is the p_max estimate; with Truncated false it is within
	// relative error eps0 of p_max with probability ≥ 1 − 1/N.
	Value float64
	// Draws is the number of stopping-rule draws the estimate consumed;
	// Reused counts those answered from the retained ledger (draws paid
	// for by earlier estimates), Sampled the net-new draws.
	Draws   int64
	Reused  int64
	Sampled int64
	// Truncated reports that the draw budget ran out before the rule
	// converged; Value is then the plain Monte-Carlo mean over the budget
	// and carries no relative-error guarantee.
	Truncated bool
}

// InvitedSet validates an invitation list against g.
func InvitedSet(g *graph.Graph, invited []graph.Node) (*graph.NodeSet, error) {
	set := graph.NewNodeSet(g.NumNodes())
	for _, v := range invited {
		if err := g.CheckNode(v); err != nil {
			// The prefix is wire format: it reaches clients verbatim.
			return nil, fmt.Errorf("activefriending: invited set: %w", err)
		}
		set.Add(v)
	}
	return set, nil
}

// PairSessions is the query state of one (s,t) pair: the solve session
// (RAF and budgeted-solve pools, the p_max estimator ledger) and its
// decorrelated evaluation session. The server caches one per pair; the
// public Session wraps one.
type PairSessions struct {
	Core *core.Session
	Eval *engine.Session
}

// NewPairSessions opens both sessions of the pair in, rooted at seed;
// workers bounds sampling parallelism without affecting any result.
func NewPairSessions(in *ltm.Instance, seed int64, workers int) PairSessions {
	cs := core.NewSession(in, seed, workers)
	return PairSessions{Core: cs, Eval: cs.Engine().NewEvalSession(seed, workers)}
}

// Solve runs RAF against the pair's cached pool.
func (p PairSessions) Solve(ctx context.Context, opts Options) (*Solution, error) {
	res, err := p.Core.RAF(ctx, opts.coreConfig())
	if err != nil {
		return nil, err
	}
	return newSolution(res), nil
}

// SolveMax solves the budgeted maximum variant against the pair's solve
// pool (realizations ≤ 0 selects maxaf.DefaultRealizations) and measures
// the chosen set on the evaluation pool at the same size.
func (p PairSessions) SolveMax(ctx context.Context, budget int, realizations int64) (*MaxSolution, error) {
	r, err := p.solveMax(ctx, budget, realizations)
	if err != nil {
		return nil, err
	}
	return r.solutions()[0], nil
}

// SolveMaxBudgets answers SolveMax for every budget in one shot: the
// pool's set-cover family is folded once, one solver's scratch is reused
// across the sweep, and both measurements are batched coverage queries —
// one postings traversal per pool. Results are identical to calling
// SolveMax per budget.
func (p PairSessions) SolveMaxBudgets(ctx context.Context, budgets []int, realizations int64) ([]*MaxSolution, error) {
	r, err := p.solveMaxBudgets(ctx, budgets, realizations)
	if err != nil {
		return nil, err
	}
	return r.solutions(), nil
}

func (p PairSessions) solveMax(ctx context.Context, budget int, realizations int64) (maxRun, error) {
	l := maxaf.Realizations(realizations)
	pool, err := p.Core.Pool(ctx, l)
	if err != nil {
		return maxRun{}, err
	}
	res, err := maxaf.SolveFromPool(ctx, p.Core.Instance(), budget, pool)
	if err != nil {
		return maxRun{}, err
	}
	f, err := p.Eval.EstimateF(ctx, res.Invited, l)
	if err != nil {
		return maxRun{}, err
	}
	return maxRun{[]*maxaf.Result{res}, []float64{f}}, nil
}

func (p PairSessions) solveMaxBudgets(ctx context.Context, budgets []int, realizations int64) (maxRun, error) {
	l := maxaf.Realizations(realizations)
	pool, err := p.Core.Pool(ctx, l)
	if err != nil {
		return maxRun{}, err
	}
	results, err := maxaf.SolveBudgetsFromPool(ctx, p.Core.Instance(), budgets, pool)
	if err != nil {
		return maxRun{}, err
	}
	sets := make([]*graph.NodeSet, len(results))
	for i, r := range results {
		sets[i] = r.Invited
	}
	fs, err := p.Eval.EstimateFMany(ctx, sets, l)
	if err != nil {
		return maxRun{}, err
	}
	return maxRun{results, fs}, nil
}

// AcceptanceProbability estimates f(invited) as a coverage query against
// the evaluation pool, grown to at least trials draws.
func (p PairSessions) AcceptanceProbability(ctx context.Context, invited []graph.Node, trials int64) (float64, error) {
	set, err := InvitedSet(p.Core.Instance().Graph(), invited)
	if err != nil {
		return 0, err
	}
	return p.Eval.EstimateF(ctx, set, trials)
}

// EstimatePmax runs Algorithm 2 through the pair's retained estimator
// ledger at relative error eps0 (0 = DefaultEps0) and failure probability
// 1/n (0 = DefaultN), drawing at most maxDraws samples (≤ 0 =
// DefaultMaxPmaxDraws). The result carries the draw accounting even when
// err is set.
func (p PairSessions) EstimatePmax(ctx context.Context, eps0, n float64, maxDraws int64) (PmaxEstimate, error) {
	eps0, n, maxDraws = pmaxArgs(eps0, n, maxDraws)
	return p.estimatePmax(ctx, eps0, n, maxDraws)
}

// estimatePmax is EstimatePmax with the defaults already resolved.
func (p PairSessions) estimatePmax(ctx context.Context, eps0, n float64, maxDraws int64) (PmaxEstimate, error) {
	res, err := p.Core.EstimatePmax(ctx, eps0, n, maxDraws)
	return PmaxEstimate{
		Value:     res.Estimate,
		Draws:     res.Draws,
		Reused:    res.Reused,
		Sampled:   res.Sampled,
		Truncated: res.Truncated,
	}, err
}

// pmaxArgs resolves EstimatePmax's parameter defaults.
func pmaxArgs(eps0, n float64, maxDraws int64) (float64, float64, int64) {
	if eps0 == 0 {
		eps0 = DefaultEps0
	}
	if n == 0 {
		n = DefaultN
	}
	if maxDraws <= 0 {
		maxDraws = DefaultMaxPmaxDraws
	}
	return eps0, n, maxDraws
}

// memBytes is the pair's resident pool state, the eviction budget's unit.
func (p PairSessions) memBytes() int64 { return p.Core.MemBytes() + p.Eval.MemBytes() }

// draws totals the pair's pool and p_max ledger draws: an unchanged total
// means unchanged (pure) state.
func (p PairSessions) draws() int64 {
	return p.Core.PoolSize() + p.Eval.Size() + p.Core.PmaxEstimator().Draws()
}

// TopKOptions parameterizes one batched ranking request.
type TopKOptions struct {
	// Budget is the invitation budget each candidate is solved under
	// (default 10).
	Budget int
	// Realizations is the full per-candidate effort: the pool size a
	// winner is scored at (≤ 0 selects the package default, 50000).
	Realizations int64
	// MaxDraws bounds the whole batch's realization-draw bill; the
	// scheduler concentrates it on the leading candidates. 0 means
	// unlimited, which scores every candidate at full effort and
	// returns byte-identical answers to independent SolveMax calls.
	MaxDraws int64
}

// NewTopKQuery builds the query ranking targets for source and keeping
// the best k, with opts' defaults resolved.
func NewTopKQuery(source graph.Node, targets []graph.Node, k int, opts TopKOptions) TopKQuery {
	if opts.Budget <= 0 {
		opts.Budget = DefaultTopKBudget
	}
	return TopKQuery{
		S:            source,
		Targets:      targets,
		K:            k,
		Budget:       opts.Budget,
		Realizations: opts.Realizations,
		MaxDraws:     opts.MaxDraws,
	}
}

// TopKCandidate is one candidate target's standing after a TopK run.
type TopKCandidate struct {
	Target graph.Node
	// Score is the decorrelated estimate of the acceptance probability
	// of Invited at Effort draws — what candidates are ranked on.
	// TrainF is the biased in-pool fraction of the same solve.
	Score  float64
	TrainF float64
	// Invited is the candidate's last chosen invitation set (nil if it
	// never scored).
	Invited []graph.Node
	// Effort is the pool size the candidate was last scored at — its
	// confidence; Rounds its scheduling rounds; Frozen marks
	// candidates eliminated before the final round.
	Effort int64
	Rounds int
	Frozen bool
	// Err is the scoring failure that froze the candidate, if any
	// (e.g. the target is the source, or already adjacent to it).
	Err string
}

// TopKResult is a finished batched ranking.
type TopKResult struct {
	Source graph.Node
	K      int
	// Winners are the top min(K, scored) candidates, best first, each
	// scored at the schedule's final effort. Candidates holds every
	// target's standing in input order; Ranked lists input indices
	// best-first.
	Winners    []TopKCandidate
	Candidates []TopKCandidate
	Ranked     []int
	// Rounds is the number of halving rounds run. DrawsSpent is the
	// measured draw bill; PlannedDraws the schedule's a-priori bill;
	// ExhaustiveDraws what independent full-effort SolveMax calls
	// would have planned. Truncated reports that MaxDraws forced even
	// the winners below full effort — TopKRefine can finish the job.
	Rounds          int
	DrawsSpent      int64
	PlannedDraws    int64
	ExhaustiveDraws int64
	Truncated       bool

	query TopKQuery // retained so TopKRefine can resume the schedule
}

// DeltaSummary reports what one ApplyDelta did.
type DeltaSummary struct {
	// Dirty is the sorted set of nodes whose edges (or weights) actually
	// changed; empty for a no-op delta, which advances no epoch.
	Dirty []graph.Node
	// NumNodes and NumEdges describe the new epoch's graph.
	NumNodes int
	NumEdges int64
	// PairsMigrated counts cached pairs carried across the epoch by
	// repair; PairsDropped those dissolved because s and t became
	// adjacent (their friending problem is solved) — including
	// spill-only pairs whose files were swept.
	PairsMigrated int
	PairsDropped  int
	// RepairChunksResampled and RepairDrawsResampled are the pool chunks
	// and draws the migration re-drew (solve, eval and p_max ledgers);
	// RepairDrawsSaved the draws adopted verbatim — what discarding every
	// pool would have cost on top.
	RepairChunksResampled int
	RepairDrawsResampled  int64
	RepairDrawsSaved      int64
}

// ServerKindStats is the hit/miss tally for one query kind: a hit found
// the pair's session cached; a miss created it (including re-creation
// after eviction).
type ServerKindStats struct {
	Hits   int64
	Misses int64
}

// ServerStats is the server's observability ledger. Its lifetime
// counters are declared in the ledger table (ledger.go).
type ServerStats struct {
	// SessionsLive counts currently cached pair sessions;
	// SessionsCreated and SessionsEvicted are lifetime counters (a pair
	// recreated after eviction counts as created again). An eviction is
	// counted exactly when its pair leaves the cache, so at quiescence
	// SessionsLive == SessionsCreated − SessionsEvicted; a snapshot taken
	// mid-eviction may see the map shrink before the counter settles.
	SessionsLive    int
	SessionsCreated int64
	SessionsEvicted int64
	// BytesHeld is the accounted size of all cached pair state; after an
	// eviction pass it never exceeds the MaxPoolBytes budget.
	BytesHeld int64
	// Spills counts evictions (and SpillAll flushes) that wrote a pair's
	// pools to the spill directory, totalling SpillBytes on disk;
	// SpillLoads counts re-admissions restored from a spill file
	// (SpillLoadBytes read) instead of resampled, and SpillDrawsSaved
	// totals the pool draws those loads avoided — the load-vs-resample
	// win. SpillLoadErrors counts rejected or unreadable spill files, the
	// sum of its causes — checksum failures, format-version skew,
	// stream-identity mismatches (wrong Seed), instance mismatches (a
	// graph the epoch lineage doesn't know), and everything else (I/O
	// errors, truncation) — SpillWriteErrors failed snapshot writes (the
	// previous file, if any, survives); the affected pairs resampled,
	// which changes no answer.
	Spills               int64
	SpillBytes           int64
	SpillLoads           int64
	SpillLoadBytes       int64
	SpillDrawsSaved      int64
	SpillLoadErrors      int64
	SpillLoadErrChecksum int64
	SpillLoadErrVersion  int64
	SpillLoadErrStream   int64
	SpillLoadErrInstance int64
	SpillLoadErrOther    int64
	SpillWriteErrors     int64
	// SpillFilesExpired counts spill files deleted by the TTL sweep
	// (SpillTTL); the affected pairs resample on their next query, which
	// changes no answer.
	SpillFilesExpired int64
	// DeltasApplied counts effective ApplyDelta calls; PairsDropped the
	// pairs deltas dissolved. PoolsRepaired counts pair migrations and
	// stale-spill loads carried across epochs by repair, re-drawing
	// RepairChunksResampled chunks (RepairDrawsResampled draws) while
	// adopting RepairDrawsSaved draws verbatim — the repair-vs-discard
	// win.
	DeltasApplied         int64
	PairsDropped          int64
	PoolsRepaired         int64
	RepairChunksResampled int64
	RepairDrawsResampled  int64
	RepairDrawsSaved      int64
	// PmaxDrawsReused totals the Algorithm 2 stopping-rule draws that
	// Solve and EstimatePmax answered from retained estimator ledgers
	// instead of resampling — the p_max refinement win.
	PmaxDrawsReused int64
	// Coalesced counts queries that joined an identical concurrent
	// in-flight query (same pair, parameters and graph epoch) and
	// shared its answer instead of paying their own computation.
	Coalesced int64
	// Inflight and Queued are the admission gate's current occupancy
	// (queries executing / waiting for a slot); Admitted and Rejected
	// are lifetime counters — a query that gives up waiting (context
	// cancellation) counts in neither. All zero with admission control
	// disabled.
	Inflight int
	Queued   int
	Admitted int64
	Rejected int64
	// Per-query-kind hit/miss tallies. TopK counts per-candidate
	// session acquisitions of batched ranking rounds.
	Solve                 ServerKindStats
	SolveMax              ServerKindStats
	AcceptanceProbability ServerKindStats
	Pmax                  ServerKindStats
	EstimatePmax          ServerKindStats
	TopK                  ServerKindStats
}
