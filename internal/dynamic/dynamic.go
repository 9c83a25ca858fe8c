// Package dynamic maintains an exact butterfly count under edge
// insertions and deletions.
//
// The static family recounts from scratch; here the update rule falls
// out of the same per-edge support quantity the paper's equation (24)
// derives: inserting edge (u, v) creates exactly
//
//	Σ_{w ∈ N(v)\{u}} (|N(u) ∩ N(w)| − 1)
//
// new butterflies (its support in the post-insertion graph), and
// deleting an edge destroys its pre-deletion support. Each update
// costs O(Σ_{w∈N(v)} min(deg u, deg w)) sorted-row intersections — far
// below a recount for local changes. This is the building block for
// streaming butterfly analytics over evolving bipartite graphs.
//
// The adjacency is held in both orientations as sorted per-vertex
// []int32 rows, the representation merge-intersection counters rely
// on. Seeding from an existing graph copies its CSR arrays once and
// takes the initial count from the static kernel, so seeding costs
// about one static count.
package dynamic

import (
	"fmt"
	"slices"

	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// Counter is a mutable bipartite graph with an incrementally
// maintained butterfly count. Not safe for concurrent mutation.
type Counter struct {
	adj   [][]int32 // u ∈ V1 → sorted neighbors in V2
	adjT  [][]int32 // v ∈ V2 → sorted neighbors in V1
	edges int64
	count int64
}

// New returns an empty counter over vertex sets of size m and n.
func New(m, n int) *Counter {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("dynamic: negative vertex-set size %d/%d", m, n))
	}
	return &Counter{adj: make([][]int32, m), adjT: make([][]int32, n)}
}

// FromGraph seeds a counter with an existing graph: one copy of each
// CSR orientation plus one sequential static count (core.CountAuto),
// whose degree-ordered twin stays cached on g for later counts of it.
// The counter never aliases g's arrays, so g stays immutable.
func FromGraph(g *graph.Bipartite) *Counter {
	return &Counter{
		adj:   rowsOf(g.Adj()),
		adjT:  rowsOf(g.AdjT()),
		edges: g.NumEdges(),
		count: core.CountAuto(g),
	}
}

// rowsOf copies a's column array once and slices it into rows. Each
// row's capacity ends at its own length, so growing one row
// reallocates that row alone and never overwrites its successor.
func rowsOf(a *sparse.CSR) [][]int32 {
	col := slices.Clone(a.Col)
	rows := make([][]int32, a.R)
	for i := range rows {
		lo, hi := a.Ptr[i], a.Ptr[i+1]
		rows[i] = col[lo:hi:hi]
	}
	return rows
}

// NumV1 returns |V1|.
func (c *Counter) NumV1() int { return len(c.adj) }

// NumV2 returns |V2|.
func (c *Counter) NumV2() int { return len(c.adjT) }

// NumEdges returns the current |E|.
func (c *Counter) NumEdges() int64 { return c.edges }

// Count returns the current number of butterflies.
func (c *Counter) Count() int64 { return c.count }

// HasEdge reports whether (u, v) is present.
func (c *Counter) HasEdge(u, v int) bool {
	if u < 0 || u >= len(c.adj) || v < 0 || v >= len(c.adjT) {
		return false
	}
	_, ok := slices.BinarySearch(c.adj[u], int32(v))
	return ok
}

func (c *Counter) check(u, v int) {
	if u < 0 || u >= len(c.adj) || v < 0 || v >= len(c.adjT) {
		panic(fmt.Sprintf("dynamic: edge (%d,%d) out of range %dx%d", u, v, len(c.adj), len(c.adjT)))
	}
}

// InsertEdge adds (u, v) and returns whether it was new plus the
// number of butterflies it created.
func (c *Counter) InsertEdge(u, v int) (added bool, delta int64) {
	c.check(u, v)
	i, dup := slices.BinarySearch(c.adj[u], int32(v))
	if dup {
		return false, 0
	}
	c.adj[u] = slices.Insert(c.adj[u], i, int32(v))
	j, _ := slices.BinarySearch(c.adjT[v], int32(u))
	c.adjT[v] = slices.Insert(c.adjT[v], j, int32(u))
	c.edges++
	delta = c.support(u, v)
	c.count += delta
	return true, delta
}

// DeleteEdge removes (u, v) and returns whether it existed plus the
// (non-negative) number of butterflies it destroyed.
func (c *Counter) DeleteEdge(u, v int) (removed bool, delta int64) {
	c.check(u, v)
	i, ok := slices.BinarySearch(c.adj[u], int32(v))
	if !ok {
		return false, 0
	}
	delta = c.support(u, v)
	c.adj[u] = slices.Delete(c.adj[u], i, i+1)
	j, _ := slices.BinarySearch(c.adjT[v], int32(u))
	c.adjT[v] = slices.Delete(c.adjT[v], j, j+1)
	c.edges--
	c.count -= delta
	return true, delta
}

// support computes the number of butterflies containing the present
// edge (u, v): Σ_{w∈N(v)\{u}} (|N(u) ∩ N(w)| − 1), where the −1
// removes the shared neighbor v itself.
func (c *Counter) support(u, v int) int64 {
	var s int64
	nu := c.adj[u]
	for _, w := range c.adjT[v] {
		if int(w) == u {
			continue
		}
		s += intersectSize(nu, c.adj[w]) - 1
	}
	return s
}

// gallopRatio is the length ratio from which intersectSize gallops
// through the longer row instead of merging.
const gallopRatio = 8

// intersectSize returns |a ∩ b| for sorted, duplicate-free rows: a
// linear merge for rows of similar length, galloping search through
// the longer row once it is gallopRatio× the shorter one.
func intersectSize(a, b []int32) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		return gallopIntersect(a, b)
	}
	return mergeIntersect(a, b)
}

func mergeIntersect(a, b []int32) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// gallopIntersect counts small ∩ large by locating each element of
// small in the unconsumed suffix of large.
func gallopIntersect(small, large []int32) int64 {
	var n int64
	for _, x := range small {
		i := gallop(large, x)
		if i == len(large) {
			break
		}
		if large[i] == x {
			n++
			i++
		}
		large = large[i:]
	}
	return n
}

// gallop returns the first index i with s[i] >= x (len(s) if none),
// probing s[1], s[2], s[4], … and binary-searching the bracketed
// window, so a hit k places in costs O(log k).
func gallop(s []int32, x int32) int {
	hi := 1
	for hi < len(s) && s[hi] < x {
		hi <<= 1
	}
	lo := hi >> 1
	hi = min(hi+1, len(s))
	i, _ := slices.BinarySearch(s[lo:hi], x)
	return lo + i
}

// Snapshot materializes the current graph as an immutable Bipartite:
// the rows are concatenated into a fresh CSR (already sorted and
// duplicate-free), so the snapshot shares no memory with the counter.
func (c *Counter) Snapshot() *graph.Bipartite {
	a := &sparse.CSR{
		R:   len(c.adj),
		C:   len(c.adjT),
		Ptr: make([]int64, len(c.adj)+1),
		Col: make([]int32, 0, c.edges),
	}
	for u, row := range c.adj {
		a.Col = append(a.Col, row...)
		a.Ptr[u+1] = int64(len(a.Col))
	}
	g, err := graph.FromCSR(a)
	if err != nil {
		panic(fmt.Sprintf("dynamic: snapshot of sorted rows invalid: %v", err))
	}
	return g
}

// VertexDelta returns how many butterflies vertex u ∈ V1 would lose if
// removed right now — the dynamic analogue of the per-vertex vector
// (19), useful for online tip-style maintenance.
func (c *Counter) VertexDelta(u int) int64 {
	if u < 0 || u >= len(c.adj) {
		panic(fmt.Sprintf("dynamic: vertex %d out of range", u))
	}
	return vertexDelta(c.adj, c.adjT, u)
}

// VertexDeltaV2 is VertexDelta for a vertex v ∈ V2.
func (c *Counter) VertexDeltaV2(v int) int64 {
	if v < 0 || v >= len(c.adjT) {
		panic(fmt.Sprintf("dynamic: vertex %d out of range", v))
	}
	return vertexDelta(c.adjT, c.adj, v)
}

// vertexDelta computes Σ_{w≠u} C(β_uw, 2) with β accumulated over
// two-hop neighbors in the given orientation.
func vertexDelta(adj, adjT [][]int32, u int) int64 {
	acc := make(map[int32]int64)
	for _, v := range adj[u] {
		for _, w := range adjT[v] {
			if int(w) != u {
				acc[w]++
			}
		}
	}
	var s int64
	for _, beta := range acc {
		s += beta * (beta - 1) / 2
	}
	return s
}
