package graph

import (
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestDeltaAddRemove(t *testing.T) {
	g := pathGraph(4) // 0-1, 1-2, 2-3
	d := &Delta{
		Add:    []Edge{{U: 0, V: 3}},
		Remove: []Edge{{U: 2, V: 1}}, // reverse orientation: canonicalized
	}
	g2, dirty, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 3) || g2.HasEdge(1, 2) || !g2.HasEdge(0, 1) || !g2.HasEdge(2, 3) {
		t.Errorf("post-delta adjacency wrong")
	}
	if want := []Node{0, 1, 2, 3}; !reflect.DeepEqual(dirty, want) {
		t.Errorf("dirty = %v, want %v", dirty, want)
	}
	// The source graph is immutable.
	if !g.HasEdge(1, 2) || g.HasEdge(0, 3) {
		t.Error("Apply mutated the source graph")
	}
}

func TestDeltaNoOps(t *testing.T) {
	g := pathGraph(4)
	d := &Delta{
		Add:    []Edge{{U: 0, V: 1}}, // already present
		Remove: []Edge{{U: 0, V: 2}}, // not present
	}
	g2, dirty, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Errorf("no-op delta marked %v dirty", dirty)
	}
	if !reflect.DeepEqual(g2.Edges(), g.Edges()) {
		t.Error("no-op delta changed the edge set")
	}
}

func TestDeltaConflictAndInvalid(t *testing.T) {
	g := pathGraph(3)
	conflict := &Delta{Add: []Edge{{U: 2, V: 0}}, Remove: []Edge{{U: 0, V: 2}}}
	if _, _, err := conflict.Apply(g); !errors.Is(err, ErrDeltaConflict) {
		t.Errorf("conflict: err = %v, want ErrDeltaConflict", err)
	}
	loop := &Delta{Add: []Edge{{U: 1, V: 1}}}
	if _, _, err := loop.Apply(g); err == nil {
		t.Error("self-loop add accepted")
	}
	neg := &Delta{Remove: []Edge{{U: -1, V: 2}}}
	if _, _, err := neg.Apply(g); err == nil {
		t.Error("negative endpoint accepted")
	}
}

func TestDeltaGrowsUniverse(t *testing.T) {
	g := pathGraph(3)
	d := &Delta{Add: []Edge{{U: 2, V: 6}}}
	g2, dirty, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 7 {
		t.Errorf("NumNodes = %d, want 7", g2.NumNodes())
	}
	if want := []Node{2, 6}; !reflect.DeepEqual(dirty, want) {
		t.Errorf("dirty = %v, want %v", dirty, want)
	}
	if g2.Degree(4) != 0 {
		t.Error("implicit nodes should be isolated")
	}
}

// TestDeltaMatchesRebuild is the property the repair path leans on: Apply
// must agree with rebuilding the post-delta edge set from scratch — CSR
// array for array — and the dirty set must be exactly the endpoints of
// the symmetric difference. The random deltas name nodes past
// NumNodes(), remove absent edges, re-add present ones and repeat
// themselves.
func TestDeltaMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
		}
		g := b.Build()
		present := g.Edges()

		var d Delta
		for i := 0; i < 1+rng.Intn(8); i++ {
			var e Edge
			switch rng.Intn(3) {
			case 0: // anywhere, up to a few nodes past the graph
				e = Edge{U: Node(rng.Intn(n + 4)), V: Node(rng.Intn(n + 4))}
			case 1: // a present edge, either orientation
				if len(present) == 0 {
					continue
				}
				e = present[rng.Intn(len(present))]
				if rng.Intn(2) == 0 {
					e.U, e.V = e.V, e.U
				}
			default: // inside the graph: mostly absent edges
				e = Edge{U: Node(rng.Intn(n)), V: Node(rng.Intn(n))}
			}
			if e.U == e.V {
				continue
			}
			if rng.Intn(2) == 0 {
				d.Add = append(d.Add, e)
			} else {
				d.Remove = append(d.Remove, e)
			}
			if rng.Intn(8) == 0 { // listed twice
				d.Add = append(d.Add, d.Add...)
				d.Remove = append(d.Remove, d.Remove...)
			}
		}
		checkApply(t, g, &d)
	}
}

// checkApply applies d to g and checks the outcome against references
// that share nothing with Apply: a delta with a self-loop, a negative
// endpoint or an edge both added and removed must fail (the conflict
// with ErrDeltaConflict when nothing else is wrong); any other delta
// must produce exactly FromEdges of the expected edge set — offsets,
// adjacency and edge count — with the endpoints of the symmetric
// difference as its dirty set, and leave g untouched.
func checkApply(tb testing.TB, g *Graph, d *Delta) {
	tb.Helper()
	before := &Graph{offsets: slices.Clone(g.offsets), adj: slices.Clone(g.adj), m: g.m}
	got, dirty, err := d.Apply(g)
	if !reflect.DeepEqual(g, before) {
		tb.Fatal("Apply mutated the source graph")
	}

	invalid, conflict := false, false
	removed := map[Edge]bool{}
	for _, e := range d.Remove {
		ce, cerr := canonical(e)
		invalid = invalid || cerr != nil
		removed[ce] = true
	}
	for _, e := range d.Add {
		ce, cerr := canonical(e)
		invalid = invalid || cerr != nil
		conflict = conflict || removed[ce]
	}
	switch {
	case invalid || conflict:
		if err == nil {
			tb.Fatalf("delta %+v applied; want an error", *d)
		}
		if !invalid && !errors.Is(err, ErrDeltaConflict) {
			tb.Fatalf("delta %+v: err = %v, want ErrDeltaConflict", *d, err)
		}
		return
	case err != nil:
		tb.Fatalf("delta %+v: %v", *d, err)
	}

	want := map[Edge]bool{}
	for _, e := range g.Edges() {
		want[e] = true
	}
	for e := range removed {
		delete(want, e)
	}
	n2 := g.NumNodes()
	for _, e := range d.Add {
		ce, _ := canonical(e)
		want[ce] = true
		n2 = max(n2, int(ce.V)+1)
	}
	ref := FromEdges(n2, slices.Collect(maps.Keys(want)))
	if !slices.Equal(got.offsets, ref.offsets) || !slices.Equal(got.adj, ref.adj) || got.m != ref.m {
		tb.Fatalf("delta %+v on %v:\n got offsets %v adj %v m %d\nwant offsets %v adj %v m %d",
			*d, g.Edges(), got.offsets, got.adj, got.m, ref.offsets, ref.adj, ref.m)
	}

	wantDirty := NewNodeSet(n2)
	for e := range want {
		if !g.ValidNode(e.V) || !g.HasEdge(e.U, e.V) {
			wantDirty.Add(e.U)
			wantDirty.Add(e.V)
		}
	}
	for _, e := range g.Edges() {
		if !want[e] {
			wantDirty.Add(e.U)
			wantDirty.Add(e.V)
		}
	}
	if !reflect.DeepEqual(dirty, wantDirty.Members()) {
		tb.Fatalf("delta %+v: dirty %v, want %v", *d, dirty, wantDirty.Members())
	}
}

// sortBuild is the reference CSR build Builder.Build must reproduce:
// canonicalize, drop self-loops and negative endpoints, sort the whole
// edge list, deduplicate, and append each edge to both endpoint rows.
func sortBuild(n int, edges []Edge) *Graph {
	var es []Edge
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		n = max(n, int(e.V)+1)
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	es = slices.Compact(es)
	rows := make([][]Node, n)
	for _, e := range es {
		rows[e.U] = append(rows[e.U], e.V)
		rows[e.V] = append(rows[e.V], e.U)
	}
	g := &Graph{offsets: make([]int32, n+1), adj: []Node{}, m: int64(len(es))}
	for v, row := range rows {
		slices.Sort(row)
		g.adj = append(g.adj, row...)
		g.offsets[v+1] = int32(len(g.adj))
	}
	return g
}

// TestBuildMatchesSortReference feeds Build duplicate, reversed,
// self-loop, negative and unsorted edges and checks its CSR against the
// sort-based reference; building twice from the same builder must give
// the same graph (Build leaves the builder reusable).
func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		var edges []Edge
		for i := 0; i < rng.Intn(4*n+1); i++ {
			e := Edge{U: Node(rng.Intn(n+3) - 1), V: Node(rng.Intn(n+3) - 1)}
			edges = append(edges, e)
			if rng.Intn(4) == 0 { // duplicate, sometimes reversed
				if rng.Intn(2) == 0 {
					e.U, e.V = e.V, e.U
				}
				edges = append(edges, e)
			}
		}
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		got := b.Build()
		want := sortBuild(n, edges)
		if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.adj, want.adj) || got.m != want.m {
			t.Fatalf("trial %d, edges %v:\n got offsets %v adj %v m %d\nwant offsets %v adj %v m %d",
				trial, edges, got.offsets, got.adj, got.m, want.offsets, want.adj, want.m)
		}
		if again := b.Build(); !reflect.DeepEqual(again, got) {
			t.Fatalf("trial %d: a second Build differs", trial)
		}
	}
}

// FuzzDeltaApply decodes bytes into a small graph and a delta and holds
// Apply to checkApply's references. Layout: byte 0 picks the node count
// (0–11), byte 1 the number of graph edges, each taking two bytes; every
// following triple is one delta edge — flags, U, V — whose endpoints
// range a few nodes past the graph (growth). Flag bit 0 selects add
// over remove; a self-loop is kept only with bit 1 set, so the error
// path is reachable without dominating.
func FuzzDeltaApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0] % 12)
		ne, data := int(data[1]%32), data[2:]
		b := NewBuilder(n)
		for ; ne > 0 && len(data) >= 2 && n > 0; ne-- {
			b.AddEdge(Node(int(data[0])%n), Node(int(data[1])%n))
			data = data[2:]
		}
		g := b.Build()
		var d Delta
		for ; len(data) >= 3; data = data[3:] {
			e := Edge{U: Node(int(data[1]) % (n + 4)), V: Node(int(data[2]) % (n + 4))}
			if e.U == e.V && data[0]&2 == 0 {
				continue
			}
			if data[0]&1 == 1 {
				d.Add = append(d.Add, e)
			} else {
				d.Remove = append(d.Remove, e)
			}
		}
		checkApply(t, g, &d)
	})
}

// TestSubgraphEdgesRoundTrip: inducing on all nodes is the identity, and
// re-building a subgraph from its own Edges() reproduces it — the
// Builder/Edges/Subgraph consistency the delta path relies on.
func TestSubgraphEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(20)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(Node(rng.Intn(n)), Node(rng.Intn(n)))
		}
		g := b.Build()

		all := make([]bool, n)
		for i := range all {
			all[i] = true
		}
		idSub, _ := g.Subgraph(all)
		if !reflect.DeepEqual(idSub.Edges(), g.Edges()) {
			t.Fatal("Subgraph over all nodes is not the identity")
		}

		keep := make([]bool, n)
		for i := range keep {
			keep[i] = rng.Intn(2) == 0
		}
		sub, orig := g.Subgraph(keep)
		rebuilt := FromEdges(sub.NumNodes(), sub.Edges())
		if !reflect.DeepEqual(rebuilt.Edges(), sub.Edges()) {
			t.Fatal("subgraph Edges round-trip mismatch")
		}
		// Every subgraph edge maps back to an original edge.
		for _, e := range sub.Edges() {
			if !g.HasEdge(orig[e.U], orig[e.V]) {
				t.Fatalf("subgraph edge %v has no preimage", e)
			}
		}
	}
}
