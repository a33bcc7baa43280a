package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	af "repro"
)

// opKind is one protocol op the workloads send.
type opKind uint8

const (
	opSolveMax opKind = iota
	opAcceptance
	opPmax
	opPmaxEst
	opTopK
	opSolve
	opDelta
)

var opNames = [...]string{"solvemax", "acceptance", "pmax", "pmaxest", "topk", "solve", "delta"}

func (k opKind) String() string { return opNames[k] }

type weighted struct {
	kind   opKind
	weight int
}

// spec is one workload. Rates are constants: the offered open-loop rate
// is never recomputed from a run, and BENCHMARK.json states it in the
// workload's "why" (a self-test keeps the two in step).
type spec struct {
	name      string
	transport string // "http" (the benchmark-owned host) or "pipe" (afserve)
	// Pair layout: sources × perSource screened (s, t) pairs; the
	// perSource targets of one source form a topk candidate group.
	sources, perSource int
	zipfS              float64 // popularity skew over the pairs
	realizations       int64   // pool size L of every solve, and the trials of acceptance / pmax
	mix                []weighted
	maxBytes           int64 // server pool byte budget
	spill              bool  // afserve -spill-dir
	setups             int   // set-ups per run; setup_s is their median
	// closedRate sizes the closed-loop phase: it sends
	// closedRate × (1 − openShare) × seconds requests, about that many
	// seconds' worth on the reference host.
	closedRate float64
	openRate   float64 // offered read rate of the open loop, req/s
	openShare  float64 // share of --seconds the open loop lasts
	// delta-mix: delta ops per second in the open loop, and one delta
	// every closedWriteEvery closed-loop requests.
	writeRate        float64
	closedWriteEvery int
	// Other workloads: a write probe of probeWrites single-edge deltas,
	// sent one at a time to a fresh, idle server of the same transport
	// (the delta path with no live pair to repair).
	probeWrites int
}

// Request parameters shared by the workloads.
const (
	pmaxEstEps    = 0.2
	pmaxEstTrials = 100000
	solveAlpha    = 0.3
	solveEps      = 0.1
	topkK         = 2
	topkBudget    = 5
	warmBudget    = 5 // solvemax budget of the warm-up; its invitations feed acceptance
	screenTrials  = 1000
	// A workload pair's screened p_max lies in [screenFloor, screenCeil]:
	// a narrow band keeps per-pair costs (pmaxest draws grow as 1/p_max)
	// alike, so runs with different seeds load the server alike.
	screenFloor = 0.1
	screenCeil  = 0.5
	solvePairs  = 4  // hot-http: the most popular pairs also take "solve"
	gateSamples = 48 // replies byte-compared against the oracle
	deltaKeep   = 8  // a removal only targets an edge added ≥ this many deltas earlier
	// Delta endpoints have at most this degree (about twice the mean):
	// an edge at a hub damages most pool chunks at once, and a rare hub
	// delta would decide the write tail of a whole run.
	deltaMaxDegree = 20
)

// specs are the workloads. BENCHMARK.json lists spill-pipe and delta-mix;
// hot-http runs by hand (--workload hot-http) and is left out of it
// because its sub-millisecond tail is not steady on a shared host (see
// README.md).
var specs = []*spec{
	{
		name: "hot-http", transport: "http",
		sources: 16, perSource: 4, zipfS: 1.1, realizations: 4096,
		mix: []weighted{
			{opSolveMax, 35}, {opAcceptance, 30}, {opPmax, 15},
			{opPmaxEst, 10}, {opTopK, 5}, {opSolve, 5},
		},
		maxBytes: 512 << 20, setups: 3,
		closedRate: 6000, openRate: 500, openShare: 0.6,
		probeWrites: 120,
	},
	{
		name: "spill-pipe", transport: "pipe",
		sources: 768, perSource: 1, zipfS: 0.8, realizations: 4096,
		mix:      []weighted{{opSolveMax, 60}, {opPmaxEst, 40}},
		maxBytes: 32 << 20, spill: true, setups: 9,
		closedRate: 140, openRate: 48, openShare: 0.75,
		probeWrites: 120,
	},
	{
		name: "delta-mix", transport: "pipe",
		sources: 2, perSource: 3, zipfS: 1.1, realizations: 4096,
		mix: []weighted{
			{opSolveMax, 45}, {opAcceptance, 30}, {opPmax, 20}, {opTopK, 5},
		},
		maxBytes: 256 << 20, setups: 5,
		closedRate: 700, openRate: 150, openShare: 0.6,
		writeRate: 6, closedWriteEvery: 50,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type pair struct{ S, T af.Node }

// edge is one single-edge delta: added, or (add false) removed.
type edge struct {
	add  bool
	u, v af.Node
}

// op is one request before encoding. pair indexes inputs.pairs (for
// topk, any pair of the candidate group); delta indexes the delta list
// of the phase that sends it.
type op struct {
	kind   opKind
	pair   int
	budget int
	delta  int
	due    int64 // open loop: ns after the phase starts
}

// inputs is everything a run sends, derived from the workload seed and
// the graph alone: the program only ever sees the encoded requests.
type inputs struct {
	sp          *spec
	pairs       []pair
	solvePairs  []int
	warm        []op
	closed      []op
	open        []op
	deltas      []edge // delta-mix writes, closed then open phase
	probeDeltas []edge // write probe (other workloads)
	probe       []op   // delta-mix correctness probe, answered after the last delta
	sampled     map[int]bool
	// invited holds each pair's warm-up solvemax invitation, the set its
	// acceptance requests ask about; filled from the first set-up.
	invited [][]af.Node
}

// phaseSizes returns the closed-loop request count and the open-loop
// duration in seconds for a run of the given length.
func (sp *spec) phaseSizes(seconds int) (closedN int, openSec float64) {
	openSec = sp.openShare * float64(seconds)
	closedN = int(math.Round(sp.closedRate * (1 - sp.openShare) * float64(seconds)))
	return max(closedN, 1), openSec
}

// pairSeed screens the workload's pairs. Like the graph, the pair set and
// its popularity order (the screening order: Zipf rank k is pairs[k]) are
// the same on every run; the workload seed draws the request streams and
// the deltas over them. Pair costs differ several fold, and with pairs
// and popularity drawn per workload seed, latencies differed by ±12 %
// between seeds on an idle host.
const pairSeed = 1

// buildInputs screens the workload's pairs and draws its request
// streams. Screening runs on in-process problem instances, so it leaves
// no state in the measured server.
func buildInputs(ctx context.Context, sp *spec, g *af.Graph, seed int64, seconds int) (*inputs, error) {
	pairs, err := screenPairs(ctx, g, pairSeed, sp.sources, sp.perSource)
	if err != nil {
		return nil, err
	}
	in := &inputs{sp: sp, pairs: pairs}
	r := rand.New(rand.NewSource(seed*1_000_003 + 11))
	z := newZipf(len(pairs), sp.zipfS)
	if weightOf(sp.mix, opSolve) > 0 {
		for p := 0; p < solvePairs; p++ {
			in.solvePairs = append(in.solvePairs, p)
		}
	}

	// Warm-up: every pair's pools and estimator ledger, every topk group
	// and solve pair, so the measured phases start hot.
	if sp.name != "spill-pipe" {
		for i := range pairs {
			in.warm = append(in.warm, op{kind: opSolveMax, pair: i, budget: warmBudget})
			if weightOf(sp.mix, opPmaxEst) > 0 {
				in.warm = append(in.warm, op{kind: opPmaxEst, pair: i})
			}
			if weightOf(sp.mix, opTopK) > 0 && i%sp.perSource == 0 {
				in.warm = append(in.warm, op{kind: opTopK, pair: i})
			}
		}
		for _, p := range in.solvePairs {
			in.warm = append(in.warm, op{kind: opSolve, pair: p})
		}
	}

	closedN, openSec := sp.phaseSizes(seconds)
	draw := func() op {
		o := op{kind: pick(r, sp.mix), pair: z.draw(r)}
		switch o.kind {
		case opSolveMax:
			o.budget = 1 + r.Intn(10)
		case opSolve:
			o.pair = in.solvePairs[r.Intn(len(in.solvePairs))]
		}
		return o
	}
	for i := 0; i < closedN; i++ {
		if sp.closedWriteEvery > 0 && i%sp.closedWriteEvery == sp.closedWriteEvery-1 {
			in.closed = append(in.closed, op{kind: opDelta, delta: len(in.deltas)})
			in.deltas = append(in.deltas, edge{}) // drawn below, in send order
			continue
		}
		in.closed = append(in.closed, draw())
	}
	nOpen := int(math.Round(sp.openRate * openSec))
	for i := 0; i < nOpen; i++ {
		o := draw()
		o.due = int64(float64(i) * 1e9 / sp.openRate)
		in.open = append(in.open, o)
	}
	if sp.writeRate > 0 {
		nw := int(sp.writeRate * openSec)
		for j := 0; j < nw; j++ {
			due := int64((float64(j) + 0.5) * 1e9 / sp.writeRate)
			in.open = append(in.open, op{kind: opDelta, delta: len(in.deltas), due: due})
			in.deltas = append(in.deltas, edge{})
		}
		sort.SliceStable(in.open, func(a, b int) bool { return in.open[a].due < in.open[b].due })
		// Number the deltas in send order so removals trail their adds.
		k := 0
		for _, phase := range [][]op{in.closed, in.open} {
			for i := range phase {
				if phase[i].kind == opDelta {
					phase[i].delta = k
					k++
				}
			}
		}
		in.deltas = genDeltas(rand.New(rand.NewSource(seed*7_919+3)), g, pairs, len(in.deltas))
		for i := range pairs {
			in.probe = append(in.probe,
				op{kind: opSolveMax, pair: i, budget: warmBudget},
				op{kind: opAcceptance, pair: i},
				op{kind: opPmax, pair: i})
		}
	}
	if sp.probeWrites > 0 {
		in.probeDeltas = genDeltas(rand.New(rand.NewSource(seed*7_919+5)), g, pairs, sp.probeWrites)
	}

	// The correctness sample: reads spread over both phases. delta-mix
	// is checked by its probe instead, at one known epoch.
	in.sampled = map[int]bool{}
	if sp.writeRate == 0 {
		total := len(in.closed) + len(in.open)
		for _, i := range r.Perm(total)[:min(gateSamples, total)] {
			in.sampled[i] = true
		}
	}
	return in, nil
}

func weightOf(mix []weighted, k opKind) int {
	for _, w := range mix {
		if w.kind == k {
			return w.weight
		}
	}
	return 0
}

func pick(r *rand.Rand, mix []weighted) opKind {
	total := 0
	for _, w := range mix {
		total += w.weight
	}
	x := r.Intn(total)
	for _, w := range mix {
		if x < w.weight {
			return w.kind
		}
		x -= w.weight
	}
	panic("unreachable: weights sum to total")
}

// zipf draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s, for any s > 0
// (math/rand's Zipf needs s > 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	var acc float64
	for k := range cdf {
		acc += 1 / math.Pow(float64(k+1), s)
		cdf[k] = acc
	}
	for k := range cdf {
		cdf[k] /= acc
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}

// screenPairs draws sources × perSource distinct (s, t) pairs: s a
// random non-isolated node, t the end of a 2–3 hop random walk from s,
// non-adjacent to s, with a screened p_max in [screenFloor, screenCeil].
func screenPairs(ctx context.Context, g *af.Graph, seed int64, sources, perSource int) ([]pair, error) {
	r := rand.New(rand.NewSource(seed*104_729 + 7))
	n := g.NumNodes()
	seen := map[pair]bool{}
	var out []pair
	for attempts := 0; len(out) < sources*perSource; attempts++ {
		if attempts > 50*sources {
			return nil, fmt.Errorf("screening found %d of %d pairs", len(out), sources*perSource)
		}
		s := af.Node(r.Intn(n))
		if g.Degree(s) == 0 {
			continue
		}
		var group []pair
		for tries := 0; tries < 12*perSource && len(group) < perSource; tries++ {
			t := s
			for h := 2 + r.Intn(2); h > 0; h-- {
				nb := g.Neighbors(t)
				t = nb[r.Intn(len(nb))]
			}
			p := pair{s, t}
			if t == s || g.HasEdge(s, t) || seen[p] {
				continue
			}
			seen[p] = true
			prob, err := af.NewProblem(g, s, t)
			if err != nil {
				continue
			}
			pm, err := prob.Pmax(ctx, screenTrials, seed)
			if err != nil {
				return nil, fmt.Errorf("screening (%d,%d): %w", s, t, err)
			}
			if pm >= screenFloor && pm <= screenCeil {
				group = append(group, p)
			}
		}
		if len(group) == perSource {
			out = append(out, group...)
		}
	}
	return out, nil
}

// genDeltas draws n single-edge deltas: additions of edges absent from
// the graph between nodes of degree at most deltaMaxDegree, and removals of edges an earlier delta added (at least
// deltaKeep deltas earlier, so two deltas in flight at once commute).
// No delta ever joins a workload pair's s and t, and no original edge is
// removed, so every pair stays valid and reachable.
func genDeltas(r *rand.Rand, g *af.Graph, pairs []pair, n int) []edge {
	isPair := map[[2]af.Node]bool{}
	for _, p := range pairs {
		isPair[canon(p.S, p.T)] = true
	}
	added := map[[2]af.Node]bool{}
	var fifo [][2]af.Node
	out := make([]edge, 0, n)
	nodes := g.NumNodes()
	for len(out) < n {
		if len(fifo) >= deltaKeep && r.Intn(2) == 0 {
			e := fifo[0]
			fifo = fifo[1:]
			delete(added, e)
			out = append(out, edge{add: false, u: e[0], v: e[1]})
			continue
		}
		u, v := af.Node(r.Intn(nodes)), af.Node(r.Intn(nodes))
		e := canon(u, v)
		if u == v || g.HasEdge(u, v) || added[e] || isPair[e] ||
			g.Degree(u) > deltaMaxDegree || g.Degree(v) > deltaMaxDegree {
			continue
		}
		added[e] = true
		fifo = append(fifo, e)
		out = append(out, edge{add: true, u: e[0], v: e[1]})
	}
	return out
}

func canon(u, v af.Node) [2]af.Node {
	if u > v {
		u, v = v, u
	}
	return [2]af.Node{u, v}
}

// wireReq is the request schema of the protocol (cmd/afserve); field
// order fixes the encoded bytes.
type wireReq struct {
	ID           int64        `json:"id"`
	Op           string       `json:"op"`
	S            af.Node      `json:"s,omitempty"`
	T            af.Node      `json:"t,omitempty"`
	Alpha        float64      `json:"alpha,omitempty"`
	Eps          float64      `json:"eps,omitempty"`
	Budget       int          `json:"budget,omitempty"`
	Realizations int64        `json:"realizations,omitempty"`
	Trials       int64        `json:"trials,omitempty"`
	Invited      []af.Node    `json:"invited,omitempty"`
	Targets      []af.Node    `json:"targets,omitempty"`
	K            int          `json:"k,omitempty"`
	MaxDraws     int64        `json:"maxdraws,omitempty"`
	Add          [][2]af.Node `json:"add,omitempty"`
	Remove       [][2]af.Node `json:"remove,omitempty"`
}

// encode renders one request line. deltas is the list o.delta indexes.
func (in *inputs) encode(id int64, o op, deltas []edge) []byte {
	L := in.sp.realizations
	p := in.pairs[o.pair]
	w := wireReq{ID: id, Op: o.kind.String(), S: p.S, T: p.T}
	switch o.kind {
	case opSolveMax:
		w.Budget, w.Realizations = o.budget, L
	case opAcceptance:
		w.Invited, w.Trials = in.invited[o.pair], L
	case opPmax:
		w.Trials = L
	case opPmaxEst:
		w.Eps, w.Trials = pmaxEstEps, pmaxEstTrials
	case opTopK:
		first := o.pair - o.pair%in.sp.perSource
		w.T = 0
		for _, q := range in.pairs[first : first+in.sp.perSource] {
			w.Targets = append(w.Targets, q.T)
		}
		w.K, w.Budget, w.Realizations = topkK, topkBudget, L
		w.MaxDraws = int64(len(w.Targets)) * L // half the exhaustive 2·L per candidate
	case opSolve:
		w.Alpha, w.Eps, w.Realizations = solveAlpha, solveEps, L
	case opDelta:
		d := deltas[o.delta]
		w.S, w.T = 0, 0
		if d.add {
			w.Add = [][2]af.Node{{d.u, d.v}}
		} else {
			w.Remove = [][2]af.Node{{d.u, d.v}}
		}
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(fmt.Sprintf("encoding a request: %v", err)) // plain structs always marshal
	}
	return b
}

// residentPairs is how many spill-pipe pairs the byte budget holds
// (32 MiB over ~1.1 MiB of pools, index and p_max ledger per pair at
// L = 4096), the capacity of the sequence model below.
const residentPairs = 28

// seqShares splits the reads of ops by what the request sequence alone
// implies, with an LRU cache of capacity pairs: first touches (no
// earlier request, warm-up included, named the pair), hits (the pair is
// among the capacity most recently used) and reloads (a revisit the
// cache has forgotten, which a spill tier restores). The split is a
// pure function of the seed, unlike the server's own counters, which
// two concurrent clients can reorder.
func (in *inputs) seqShares(capacity int, phases ...[]op) (first, hit, reload float64) {
	var lru []int // most recent first
	touch := func(p int) (seen, resident bool) {
		for i, q := range lru {
			if q == p {
				copy(lru[1:i+1], lru[:i])
				lru[0] = p
				return true, i < capacity
			}
		}
		lru = append([]int{p}, lru...)
		return false, false
	}
	for _, o := range in.warm {
		touch(o.pair)
	}
	var nFirst, nHit, nReload, reads float64
	for _, ops := range phases {
		for _, o := range ops {
			if o.kind == opDelta {
				continue
			}
			reads++
			switch seen, resident := touch(o.pair); {
			case !seen:
				nFirst++
			case resident:
				nHit++
			default:
				nReload++
			}
		}
	}
	return ratio(nFirst, reads), ratio(nHit, reads), ratio(nReload, reads)
}
