package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrDeltaConflict reports a Delta listing the same edge as both an add
// and a remove — the intent is ambiguous, so the apply path refuses it.
var ErrDeltaConflict = errors.New("graph: edge both added and removed in one delta")

// Delta is a batch graph mutation: a set of undirected edges to add and a
// set to remove, applied atomically to produce the next epoch's graph.
// Edges are canonicalized (U < V) on apply; self-loops are rejected, and
// listing the same edge in both sets is an error. Adding an edge that
// already exists or removing one that doesn't is a no-op that marks no
// node dirty — a delta's dirty set reflects only actual structural
// change, which is what the pool-repair damage test keys on.
type Delta struct {
	Add    []Edge
	Remove []Edge
}

// Empty reports whether the delta lists no edges at all.
func (d *Delta) Empty() bool { return len(d.Add) == 0 && len(d.Remove) == 0 }

// canonical returns e with U < V, or an error for self-loops and
// negative nodes.
func canonical(e Edge) (Edge, error) {
	if e.U == e.V {
		return e, fmt.Errorf("graph: delta edge (%d,%d) is a self-loop", e.U, e.V)
	}
	if e.U < 0 || e.V < 0 {
		return e, fmt.Errorf("graph: delta edge (%d,%d) has a negative endpoint", e.U, e.V)
	}
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e, nil
}

func cmpEdge(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// halfEdge is one real change seen from one endpoint: nbr enters (add)
// or leaves (!add) row's adjacency list.
type halfEdge struct {
	row, nbr Node
	add      bool
}

func cmpHalfEdge(a, b halfEdge) int {
	if c := cmp.Compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.nbr, b.nbr)
}

// Apply builds the epoch-N+1 graph from g and returns it together with
// the sorted distinct dirty set: the endpoints of every edge that was
// actually added or removed. Nodes beyond g's range referenced by added
// edges grow the node count (max endpoint + 1); removes are processed
// before adds, so a delta that removes and re-adds the same edge is a
// conflict, not a no-op. g is never mutated.
//
// Apply splices the CSR instead of rebuilding it. Only the real changes
// (adds of absent edges, removes of present ones, found by HasEdge) are
// kept, as (row, neighbour) half-edges sorted once; the new offsets take
// one pass over the rows, each run of clean rows moves with a single
// copy, and each dirty row is merged with its sorted adds and removes.
// For a delta listing k edges that is O(n + m) memmove plus
// O(k log k + Σ deg(dirty)) work — the graph is never re-sorted.
func (d *Delta) Apply(g *Graph) (*Graph, []Node, error) {
	adds := make([]Edge, 0, len(d.Add))
	for _, e := range d.Add {
		ce, err := canonical(e)
		if err != nil {
			return nil, nil, err
		}
		adds = append(adds, ce)
	}
	slices.SortFunc(adds, cmpEdge)
	adds = slices.Compact(adds)

	n := g.NumNodes()
	var changes []halfEdge
	for _, e := range d.Remove {
		ce, err := canonical(e)
		if err != nil {
			return nil, nil, err
		}
		if _, clash := slices.BinarySearchFunc(adds, ce, cmpEdge); clash {
			return nil, nil, fmt.Errorf("%w: (%d,%d)", ErrDeltaConflict, ce.U, ce.V)
		}
		if g.ValidNode(ce.V) && g.HasEdge(ce.U, ce.V) {
			changes = append(changes, halfEdge{ce.U, ce.V, false}, halfEdge{ce.V, ce.U, false})
		}
	}
	n2 := n
	for _, e := range adds {
		n2 = max(n2, int(e.V)+1)
		if !g.ValidNode(e.V) || !g.HasEdge(e.U, e.V) {
			changes = append(changes, halfEdge{e.U, e.V, true}, halfEdge{e.V, e.U, true})
		}
	}
	// Duplicate removes leave identical half-edges; adds are already
	// distinct.
	slices.SortFunc(changes, cmpHalfEdge)
	changes = slices.Compact(changes)
	size := len(g.adj)
	for _, c := range changes {
		if c.add {
			size++
		} else {
			size--
		}
	}

	offsets := make([]int32, n2+1)
	adj := make([]Node, size)
	dirty := make([]Node, 0, len(changes))
	var w int32 // next free slot of adj
	// placeClean lays out rows [a, b), none of them dirty: old rows as one
	// shifted run, appended rows empty.
	placeClean := func(a, b int) {
		if c := min(b, n); a < c {
			shift := w - g.offsets[a]
			for v := a; v < c; v++ {
				offsets[v] = g.offsets[v] + shift
			}
			w += int32(copy(adj[w:], g.adj[g.offsets[a]:g.offsets[c]]))
		}
		for v := max(a, n); v < b; v++ {
			offsets[v] = w
		}
	}
	next := 0 // first row not yet laid out
	for i := 0; i < len(changes); {
		r := changes[i].row
		j := i + 1
		for j < len(changes) && changes[j].row == r {
			j++
		}
		placeClean(next, int(r))
		offsets[r] = w
		var old []Node
		if int(r) < n {
			old = g.Neighbors(r)
		}
		k := 0
		for _, c := range changes[i:j] {
			for k < len(old) && old[k] < c.nbr {
				adj[w] = old[k]
				w++
				k++
			}
			if c.add {
				adj[w] = c.nbr
				w++
			} else {
				k++ // old[k] == c.nbr: a real remove is present
			}
		}
		w += int32(copy(adj[w:], old[k:]))
		dirty = append(dirty, r)
		next = int(r) + 1
		i = j
	}
	placeClean(next, n2)
	offsets[n2] = w
	return &Graph{offsets: offsets, adj: adj, m: int64(size / 2)}, dirty, nil
}
