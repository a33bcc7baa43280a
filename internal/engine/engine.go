// Package engine is the shared realization engine behind every algorithm
// in the library: RAF (Alg. 3–4), the budgeted maximum variant, the
// reverse f-estimator (Corollary 1) and the experiment harness all draw
// reverse realizations t(g) and answer coverage queries through it.
//
// Three properties distinguish it from naive per-consumer sampling:
//
//   - Pools are stored in a compact CSR layout (one flat path arena plus
//     offsets) handed zero-copy to the set-cover solver, with an inverted
//     node → realization index for repeated coverage queries.
//   - Sampling is partitioned into fixed-size chunks whose random streams
//     derive from the chunk index (namespaced per call site), so pool
//     contents and estimates are pure functions of (seed, l) — identical
//     for any worker count.
//   - Per-worker Samplers are recycled through a sync.Pool, and a Session
//     caches a growable pool so repeated solves (e.g. an α-sweep) sample
//     each realization exactly once.
package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/parallel"
	"repro/internal/realization"
	"repro/internal/rng"
	"repro/internal/weights"
	"sync"
)

// ChunkSize is the number of realization draws per sampling chunk. It is
// part of the determinism contract: pool contents depend on how draws are
// grouped into chunks, so changing it changes pools for a fixed seed.
const ChunkSize = 2048

// Stream namespaces (see rng.DeriveStream): every sampling call site gets
// its own family of indexed streams so phases sharing one root seed never
// consume identical randomness. The p_max stopping-rule namespace nsPmax
// lives in pmax.go next to the estimator; its draws follow the same
// fixed-chunk layout as pools (chunk c reads stream (seed, ns, c) from
// its start), so every stream family shares one determinism story.
const (
	nsPool     uint64 = 0x506F6F4C // solve pools ("PooL")
	nsEstimate uint64 = 0x45737446 // one-shot reverse f-estimation ("EstF")
	nsEval     uint64 = 0x4576616C // evaluation-pool sessions ("Eval")
)

// Engine samples realizations for one instance. It is safe for concurrent
// use; samplers are recycled across calls and goroutines.
type Engine struct {
	in        *ltm.Instance
	samplers  sync.Pool
	draws     atomic.Int64 // every draw made through the engine
	poolDraws atomic.Int64 // draws spent filling pools (subset of draws)
	pmaxDraws atomic.Int64 // draws spent in p_max estimator ledgers (subset of draws)

	// Delta-repair accounting (subsets of draws; see repair.go): draws
	// re-made resampling damaged chunks, draws adopted across a delta
	// without resampling, and the damaged chunk count.
	repairDraws  atomic.Int64
	repairSaved  atomic.Int64
	repairChunks atomic.Int64

	// lineage, when bound, lets snapshot adoption resolve fingerprints of
	// ancestor epochs of the same evolving graph (see lineage.go). gfp is
	// the graph-level fingerprint; fp mixes in (s, t).
	lineage *Lineage
	gfpOnce sync.Once
	gfp     uint64
	fpOnce  sync.Once
	fp      uint64
}

// fpFinalize is the murmur3 finalizer used to restore avalanche after the
// word-wise FNV mixing in the fingerprint functions.
func fpFinalize(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// GraphFingerprint returns a content hash of a (graph, weights) pair —
// structure and edge weights, but no (s, t) binding, so one O(V+E) pass
// serves every pair session on the graph (instance fingerprints mix the
// endpoints in afterwards, O(1) each). It identifies one graph *epoch*:
// applying a delta changes it, and the lineage of these values is what
// lets a restore recognize a snapshot from an earlier epoch of the same
// evolving graph (see Lineage).
//
// The hash is a wrapping sum of per-row hashes — row v hashes v, deg(v)
// and each (u, w(u,v)) for u ∈ N(v) — finalized with the node count.
// The sum is what makes epochs cheap: AdvanceRowSum carries it across a
// delta by rehashing only the dirty and appended rows, and the result
// equals this full recompute. Every fingerprint depends on this
// definition: spill files written under another one load as an
// instance mismatch and resample (their answers are unaffected).
func GraphFingerprint(g *graph.Graph, w weights.Scheme) uint64 {
	return FingerprintFromRowSum(GraphRowSum(g, w), g.NumNodes())
}

// GraphRowSum returns the wrapping sum of (g, w)'s row hashes: the raw
// state GraphFingerprint finalizes and AdvanceRowSum updates.
func GraphRowSum(g *graph.Graph, w weights.Scheme) uint64 {
	var sum uint64
	for v := graph.Node(0); v < graph.Node(g.NumNodes()); v++ {
		sum += rowHash(g, w, v)
	}
	return sum
}

// AdvanceRowSum carries a row sum of (g, w) across a delta to (g2, w2):
// it subtracts the old hashes of the dirty rows (sorted distinct, as
// Delta.Apply returns them, plus weight-update endpoints) and adds the
// new hashes of the dirty rows and of every row g2 appended. The result
// equals GraphRowSum(g2, w2) whenever clean rows keep their incoming
// weights, as they do for every scheme weights.Rebuild produces: a
// Degree or Uniform weight w(u,v) depends on deg(v) alone, and Explicit
// rebuilds copy clean rows verbatim. Cost: O(Σ deg(dirty) + appended).
func AdvanceRowSum(sum uint64, g *graph.Graph, w weights.Scheme, g2 *graph.Graph, w2 weights.Scheme, dirty []graph.Node) uint64 {
	n := graph.Node(g.NumNodes())
	for _, v := range dirty {
		if v >= n {
			break // appended: added below
		}
		sum += rowHash(g2, w2, v) - rowHash(g, w, v)
	}
	for v := n; v < graph.Node(g2.NumNodes()); v++ {
		sum += rowHash(g2, w2, v)
	}
	return sum
}

// FingerprintFromRowSum finalizes a row sum over n nodes into the graph
// fingerprint.
func FingerprintFromRowSum(sum uint64, n int) uint64 {
	const prime64 = 1099511628211
	return fpFinalize((sum ^ uint64(n)) * prime64)
}

// rowHash hashes row v of (g, w) — v, deg(v), then each (u, w(u,v)) —
// by word-wise FNV-1a (whole uint64 per round, not per byte) with the
// murmur3 finalizer, so the rows' wrapping sum stays well mixed.
func rowHash(g *graph.Graph, w weights.Scheme, v graph.Node) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	nb := g.Neighbors(v)
	h := uint64(offset64)
	h = (h ^ uint64(v)) * prime64
	h = (h ^ uint64(len(nb))) * prime64
	for _, u := range nb {
		h = (h ^ uint64(u)) * prime64
		h = (h ^ math.Float64bits(w.W(u, v))) * prime64
	}
	return fpFinalize(h)
}

// instanceFingerprint derives the per-instance fingerprint from a graph
// epoch's fingerprint and the (s, t) endpoints.
func instanceFingerprint(graphFP uint64, s, t graph.Node) uint64 {
	const prime64 = 1099511628211
	h := graphFP
	h = (h ^ uint64(uint32(s))) * prime64
	h = (h ^ uint64(uint32(t))) * prime64
	return fpFinalize(h)
}

// Bind attaches the engine to a graph-epoch lineage and pins its graph
// fingerprint, sparing the O(V+E) hash when the caller (a serving layer
// that computed it once per epoch) already knows it. Call before the
// first Fingerprint use; an engine that already hashed on its own keeps
// its value (identical, since GraphFingerprint is deterministic).
func (e *Engine) Bind(lin *Lineage, graphFP uint64) {
	e.lineage = lin
	e.gfpOnce.Do(func() { e.gfp = graphFP })
}

// GraphFP returns the engine's graph-epoch fingerprint (computing it on
// first use unless Bind supplied it).
func (e *Engine) GraphFP() uint64 {
	e.gfpOnce.Do(func() { e.gfp = GraphFingerprint(e.in.Graph(), e.in.Weights()) })
	return e.gfp
}

// Fingerprint returns a content hash of the engine's problem instance —
// graph structure, edge weights, initiator and target. Snapshots embed
// it so a restore can reject pools sampled on a *different* instance
// that happens to share a node count (same-seed restarts against a
// modified graph must resample — or, when the mismatch resolves to an
// ancestor epoch in a bound lineage, adopt and repair).
func (e *Engine) Fingerprint() uint64 {
	e.fpOnce.Do(func() { e.fp = instanceFingerprint(e.GraphFP(), e.in.S(), e.in.T()) })
	return e.fp
}

// New returns an engine for the instance.
func New(in *ltm.Instance) *Engine {
	e := &Engine{in: in}
	e.samplers.New = func() any { return realization.NewSampler(in) }
	return e
}

// Instance returns the underlying instance.
func (e *Engine) Instance() *ltm.Instance { return e.in }

// Draws returns the total number of realization draws made through the
// engine; PoolDraws counts only those spent filling pools. Each pooled
// draw is counted exactly once: when a Session regrows a partial trailing
// chunk, the re-derived prefix is not re-counted, so after any grow
// sequence PoolDraws equals the sum of the cached pool sizes. The pair
// makes pool reuse observable: an α-sweep through one Session leaves
// PoolDraws at exactly the pool size.
func (e *Engine) Draws() int64     { return e.draws.Load() }
func (e *Engine) PoolDraws() int64 { return e.poolDraws.Load() }

// PmaxDraws counts the draws spent filling p_max estimator ledgers
// (a subset of Draws, disjoint from PoolDraws). Each ledgered draw is
// charged at most once — regrowing a partial trailing chunk charges only
// the net growth — so after any estimate sequence PmaxDraws equals the
// draws this process sampled into live estimator ledgers. Ledger content
// restored from a snapshot is NOT counted (those draws were paid for in
// a previous life), so a restored estimator's ledger can exceed the
// counter; the gap is exactly the restart's sampling win.
func (e *Engine) PmaxDraws() int64 { return e.pmaxDraws.Load() }

// RepairDrawsResampled, RepairDrawsSaved and RepairChunksResampled expose
// the engine's delta-repair accounting: draws re-made resampling damaged
// chunks (charged to Draws but to neither PoolDraws nor PmaxDraws — the
// repaired pool's size was paid for at the old epoch), draws whose chunks
// were adopted across a delta without resampling (the repair-vs-discard
// win), and the damaged chunk count.
func (e *Engine) RepairDrawsResampled() int64  { return e.repairDraws.Load() }
func (e *Engine) RepairDrawsSaved() int64      { return e.repairSaved.Load() }
func (e *Engine) RepairChunksResampled() int64 { return e.repairChunks.Load() }

// addPmaxDraws charges n p_max-ledger draws to the engine's ledger.
func (e *Engine) addPmaxDraws(n int64) {
	e.draws.Add(n)
	e.pmaxDraws.Add(n)
}

// chunkPaths holds the type-1 paths of one sampled chunk in local CSR
// form: path j is arena[offsets[j]:offsets[j+1]] and was produced by the
// chunk-local draw drawIdx[j]. The draw indices are what let an
// assembled pool serve truncated prefix views (Pool.Truncate) at any
// draw count, independent of how large the cache has grown.
type chunkPaths struct {
	draws   int64
	arena   []graph.Node
	offsets []int32
	drawIdx []int32
	// touched is the sorted distinct set of nodes the chunk's draws
	// consulted (see realization.Sampler.BeginTouches) — the delta-repair
	// damage test: a chunk whose touched set is disjoint from a delta's
	// dirty nodes replays byte-identically on the post-delta graph. nil
	// means unknown (e.g. restored from a snapshot without a touch
	// section), which repair treats as damaged — always correct, just
	// slower.
	touched []graph.Node
}

// chunkBuf carries the backing arrays a sampled chunk appends into.
// Buffers cycle through a process-wide pool: a sampling call draws one
// per chunk, hands its (possibly regrown) arrays back after pool
// assembly, and steady-state sampling stops allocating entirely — the
// arenas are size-hinted by whatever previous chunks needed. The pool is
// package-level rather than per-Engine because a buffer's contents are
// appended from scratch every use and carry nothing instance-specific,
// so a batched top-k request spanning many pair engines warms one shared
// set of arenas instead of one cold set per candidate.
type chunkBuf struct {
	arena   []graph.Node
	offsets []int32
	drawIdx []int32
	touched []graph.Node
}

var chunkBufs = sync.Pool{New: func() any { return new(chunkBuf) }}

// getChunkBuf draws a recycled chunk buffer from the shared pool.
func (e *Engine) getChunkBuf() *chunkBuf { return chunkBufs.Get().(*chunkBuf) }

// putChunkBuf returns cp's backing arrays to the pool through b (the
// buffer cp was sampled into). keepTables leaves offsets/drawIdx with the
// caller — Session retains them for regrowth and recycles only the
// arena, whose contents it re-aliases into the assembled pool.
func (e *Engine) putChunkBuf(b *chunkBuf, cp chunkPaths, keepTables bool) {
	b.arena = cp.arena[:0]
	if keepTables {
		b.offsets, b.drawIdx, b.touched = nil, nil, nil
	} else {
		b.offsets = cp.offsets[:0]
		b.drawIdx = cp.drawIdx[:0]
		b.touched = cp.touched[:0]
	}
	chunkBufs.Put(b)
}

// sampleChunk draws n realizations from the stream (seed, ns, chunk) and
// accumulates the type-1 paths into b's chunk-local arena — no per-path
// allocation, and none at all once b's arrays are warm. A chunk's result
// depends only on (seed, ns, chunk, n), and a shorter chunk's paths are
// a prefix of a longer one's, which is what lets Session grow a partial
// trailing chunk consistently.
//
// sampleChunk does not touch the draw ledger: the caller accounts for the
// draws it is responsible for, so a Session that regrows a partial chunk
// (re-deriving its already-counted prefix) can charge only the net-new
// draws and keep PoolDraws equal to the pool size.
func (e *Engine) sampleChunk(seed int64, ns uint64, chunk, n int64, b *chunkBuf) chunkPaths {
	st := rng.DerivedStream(seed, ns, uint64(chunk))
	sp := e.samplers.Get().(*realization.Sampler)
	sp.BeginTouches()
	cp := chunkPaths{
		draws:   n,
		arena:   b.arena[:0],
		offsets: append(b.offsets[:0], 0),
		drawIdx: b.drawIdx[:0],
	}
	for i := int64(0); i < n; i++ {
		tg := sp.SampleTGView(&st)
		if tg.Outcome == realization.Type1 {
			cp.arena = append(cp.arena, tg.Path...)
			cp.offsets = append(cp.offsets, int32(len(cp.arena)))
			cp.drawIdx = append(cp.drawIdx, int32(i))
		}
	}
	cp.touched = append(b.touched[:0], sp.Touches()...)
	slices.Sort(cp.touched)
	e.samplers.Put(sp)
	return cp
}

// addPoolDraws charges n pool draws to the engine's ledger.
func (e *Engine) addPoolDraws(n int64) {
	e.draws.Add(n)
	e.poolDraws.Add(n)
}

// assemblePool concatenates chunk results (in chunk order) into one pool.
func assemblePool(chunks []chunkPaths, universe int) (*Pool, error) {
	var total, arenaLen int64
	var paths int
	for _, c := range chunks {
		total += c.draws
		arenaLen += int64(len(c.arena))
		paths += len(c.offsets) - 1
	}
	if arenaLen > math.MaxInt32 {
		return nil, fmt.Errorf("engine: pool arena of %d nodes overflows int32 offsets", arenaLen)
	}
	p := &Pool{
		arena:    make([]graph.Node, 0, arenaLen),
		offsets:  make([]int32, 1, paths+1),
		pathDraw: make([]int64, 0, paths),
		total:    total,
		universe: universe,
	}
	var drawBase int64
	for _, c := range chunks {
		base := int32(len(p.arena))
		p.arena = append(p.arena, c.arena...)
		for _, end := range c.offsets[1:] {
			p.offsets = append(p.offsets, base+end)
		}
		for _, d := range c.drawIdx {
			p.pathDraw = append(p.pathDraw, drawBase+int64(d))
		}
		drawBase += c.draws
	}
	return p, nil
}

// maxPoolChunks bounds the per-chunk descriptor table one sampling run
// may materialize (the cap allows ~8.6 billion draws, weeks of work; a
// request beyond it — e.g. an Unbounded solve whose theoretical l* is
// astronomical — is a configuration error and gets a clean error instead
// of a fatal allocation).
const maxPoolChunks = 1 << 22

// checkDraws validates a requested draw count against the chunk-table cap.
func checkDraws(l int64) error {
	if l <= 0 {
		return fmt.Errorf("engine: draw count %d must be positive", l)
	}
	if (l+ChunkSize-1)/ChunkSize > maxPoolChunks {
		return fmt.Errorf("engine: draw count %d exceeds the %d maximum (cap the pool, e.g. MaxRealizations)",
			l, int64(maxPoolChunks)*ChunkSize)
	}
	return nil
}

// SamplePool draws l realizations (workers 0 = all CPUs) and collects the
// type-1 paths into a CSR pool. The result is a pure function of
// (seed, l): draws are partitioned into fixed chunks assigned by index,
// so the worker count affects only wall-clock time.
func (e *Engine) SamplePool(ctx context.Context, l int64, workers int, seed int64) (*Pool, error) {
	return e.samplePoolNS(ctx, l, workers, seed, nsPool)
}

func (e *Engine) samplePoolNS(ctx context.Context, l int64, workers int, seed int64, ns uint64) (*Pool, error) {
	if err := checkDraws(l); err != nil {
		return nil, err
	}
	chunks := make([]chunkPaths, (l+ChunkSize-1)/ChunkSize)
	bufs := make([]*chunkBuf, len(chunks))
	err := parallel.ForChunks(ctx, l, ChunkSize, workers, func(c int, _, n int64) {
		bufs[c] = e.getChunkBuf()
		chunks[c] = e.sampleChunk(seed, ns, int64(c), n, bufs[c])
	})
	if err != nil {
		return nil, err
	}
	e.addPoolDraws(l)
	pool, err := assemblePool(chunks, e.in.Graph().NumNodes())
	if err != nil {
		return nil, err
	}
	// Assembly copied everything out; the chunk arrays go back to the pool.
	for c := range chunks {
		e.putChunkBuf(bufs[c], chunks[c], false)
	}
	return pool, nil
}

// EstimateF estimates f(invited) with trials independent reverse samples
// (Corollary 1): the fraction of draws whose t(g) is covered. Lemma 1
// guarantees agreement with the forward simulator. Like SamplePool, the
// estimate is a pure function of (seed, trials) regardless of workers.
func (e *Engine) EstimateF(ctx context.Context, invited *graph.NodeSet, trials int64, workers int, seed int64) (float64, error) {
	if err := checkDraws(trials); err != nil {
		return 0, err
	}
	hits := make([]int64, (trials+ChunkSize-1)/ChunkSize)
	err := parallel.ForChunks(ctx, trials, ChunkSize, workers, func(c int, _, n int64) {
		st := rng.DerivedStream(seed, nsEstimate, uint64(c))
		sp := e.samplers.Get().(*realization.Sampler)
		var h int64
		for i := int64(0); i < n; i++ {
			if sp.SampleTGView(&st).Covered(invited) {
				h++
			}
		}
		e.samplers.Put(sp)
		e.draws.Add(n)
		hits[c] = h
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(trials), nil
}
