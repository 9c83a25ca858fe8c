// Package graph defines the simple, undirected bipartite graph type
// shared by all butterfly algorithms, together with builders, induced
// subgraphs, relabelings and summary statistics.
//
// A bipartite graph G = (V1, V2, E) is stored as its biadjacency
// pattern A in CSR form (rows = V1, columns = V2) plus the transpose
// Aᵀ. Keeping both orientations resident is what lets the paper's two
// algorithm families pick their preferred storage: invariants 1–4 walk
// columns of A (CSC ≡ CSR of Aᵀ), invariants 5–8 walk rows.
package graph

import (
	"errors"
	"fmt"

	"butterfly/internal/bitvec"
	"butterfly/internal/sparse"
)

// Bipartite is an immutable simple bipartite graph. Construct one with
// Builder, FromCSR or FromEdges; do not mutate the adjacency matrices
// after construction.
type Bipartite struct {
	adj  *sparse.CSR // A: V1 → V2, pattern matrix
	adjT *sparse.CSR // Aᵀ: V2 → V1, pattern matrix

	// Lazily-computed caches (see profile.go): the degree profile the
	// automatic relayout reads, and the degree-ordered twin the
	// counting kernels stream. Both derive deterministically from the
	// immutable adjacency, so they never invalidate.
	prof   profCache
	degOrd degOrdCache
}

// Edge is an undirected edge between vertex U ∈ V1 and V ∈ V2.
type Edge struct {
	U, V int32
}

// Builder accumulates edges for a Bipartite graph. Duplicate edges are
// merged silently (simple graph).
type Builder struct {
	coo *sparse.COO
}

// NewBuilder returns a builder for a graph with |V1| = m, |V2| = n.
func NewBuilder(m, n int) *Builder {
	return &Builder{coo: sparse.NewCOO(m, n)}
}

// AddEdge records the edge (u ∈ V1, v ∈ V2). Panics if out of range.
func (b *Builder) AddEdge(u, v int) { b.coo.Add(u, v) }

// Build finalizes the graph.
func (b *Builder) Build() *Bipartite {
	a := b.coo.ToCSR(sparse.DupBinary)
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}
}

// FromCSR wraps an existing biadjacency pattern. The matrix must be a
// valid pattern CSR; an error is returned otherwise. The matrix is used
// directly (not copied).
func FromCSR(a *sparse.CSR) (*Bipartite, error) {
	if a == nil {
		return nil, errors.New("graph: nil adjacency")
	}
	if !a.IsPattern() {
		return nil, errors.New("graph: adjacency must be a pattern (0/1) matrix")
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("graph: invalid adjacency: %w", err)
	}
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}, nil
}

// FromEdges builds a graph from an edge list.
func FromEdges(m, n int, edges []Edge) *Bipartite {
	b := NewBuilder(m, n)
	for _, e := range edges {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

// NumV1 returns |V1|.
func (g *Bipartite) NumV1() int { return g.adj.R }

// NumV2 returns |V2|.
func (g *Bipartite) NumV2() int { return g.adj.C }

// NumEdges returns |E|.
func (g *Bipartite) NumEdges() int64 { return g.adj.NNZ() }

// Adj returns the biadjacency pattern A (V1 rows → V2 columns). The
// returned matrix aliases internal storage; treat it as read-only.
func (g *Bipartite) Adj() *sparse.CSR { return g.adj }

// AdjT returns Aᵀ (V2 rows → V1 columns); read-only.
func (g *Bipartite) AdjT() *sparse.CSR { return g.adjT }

// CSC returns the biadjacency in CSC form, sharing storage with AdjT.
// This is the layout invariants 1–4 iterate over.
func (g *Bipartite) CSC() *sparse.CSC { return sparse.CSCFromCSRTranspose(g.adjT) }

// NeighborsOfV1 returns the V2 neighbors of u ∈ V1 (sorted, read-only).
func (g *Bipartite) NeighborsOfV1(u int) []int32 { return g.adj.Row(u) }

// NeighborsOfV2 returns the V1 neighbors of v ∈ V2 (sorted, read-only).
func (g *Bipartite) NeighborsOfV2(v int) []int32 { return g.adjT.Row(v) }

// DegreeV1 returns deg(u) for u ∈ V1.
func (g *Bipartite) DegreeV1(u int) int { return g.adj.RowDeg(u) }

// DegreeV2 returns deg(v) for v ∈ V2.
func (g *Bipartite) DegreeV2(v int) int { return g.adjT.RowDeg(v) }

// HasEdge reports whether (u, v) ∈ E.
func (g *Bipartite) HasEdge(u, v int) bool { return g.adj.At(u, v) != 0 }

// Edges returns the edge list in row-major order.
func (g *Bipartite) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumV1(); u++ {
		for _, v := range g.adj.Row(u) {
			out = append(out, Edge{U: int32(u), V: v})
		}
	}
	return out
}

// Transposed returns the graph with the two vertex sets swapped (Aᵀ as
// the biadjacency). Storage is shared with g.
func (g *Bipartite) Transposed() *Bipartite {
	return &Bipartite{adj: g.adjT, adjT: g.adj}
}

// Equal reports whether two graphs have identical vertex-set sizes and
// edge sets.
func (g *Bipartite) Equal(h *Bipartite) bool { return g.adj.Equal(h.adj) }

// Density returns |E| / (|V1|·|V2|), the fill fraction of A.
func (g *Bipartite) Density() float64 {
	cells := float64(g.NumV1()) * float64(g.NumV2())
	if cells == 0 {
		return 0
	}
	return float64(g.NumEdges()) / cells
}

// InducedSubgraph returns the subgraph keeping only vertices set in
// keep1/keep2 (nil keeps the whole side). Vertex identifiers are
// preserved — removed vertices simply become isolated. This matches the
// paper's masking semantics (equations (21)–(22), (26)–(27)), where the
// adjacency stays the same shape and rows/columns are zeroed.
func (g *Bipartite) InducedSubgraph(keep1, keep2 *bitvec.Vector) *Bipartite {
	a := sparse.ZeroRowsCols(g.adj, keep1, keep2)
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}
}

// FilterEdges returns the subgraph retaining only edges for which keep
// returns true.
func (g *Bipartite) FilterEdges(keep func(u, v int32) bool) *Bipartite {
	a := sparse.Select(g.adj, func(i int, j int32, _ int64) bool { return keep(int32(i), j) })
	return &Bipartite{adj: a, adjT: sparse.Transpose(a)}
}

// Compact renumbers away isolated vertices on both sides, returning the
// compacted graph plus the old→new vertex maps (−1 for dropped
// vertices).
func (g *Bipartite) Compact() (h *Bipartite, mapV1, mapV2 []int32) {
	mapV1 = make([]int32, g.NumV1())
	mapV2 = make([]int32, g.NumV2())
	m := 0
	for u := range mapV1 {
		if g.DegreeV1(u) > 0 {
			mapV1[u] = int32(m)
			m++
		} else {
			mapV1[u] = -1
		}
	}
	n := 0
	for v := range mapV2 {
		if g.DegreeV2(v) > 0 {
			mapV2[v] = int32(n)
			n++
		} else {
			mapV2[v] = -1
		}
	}
	b := NewBuilder(m, n)
	for u := 0; u < g.NumV1(); u++ {
		for _, v := range g.adj.Row(u) {
			b.AddEdge(int(mapV1[u]), int(mapV2[v]))
		}
	}
	return b.Build(), mapV1, mapV2
}

// Validate checks internal consistency (adjacency valid, transpose in
// sync); it is cheap insurance after hand-constructed graphs.
func (g *Bipartite) Validate() error {
	if err := g.adj.Validate(); err != nil {
		return fmt.Errorf("graph: adj: %w", err)
	}
	if err := g.adjT.Validate(); err != nil {
		return fmt.Errorf("graph: adjT: %w", err)
	}
	if !sparse.Transpose(g.adj).Equal(g.adjT) {
		return errors.New("graph: adjT is not the transpose of adj")
	}
	return nil
}

// String summarizes the graph.
func (g *Bipartite) String() string {
	return fmt.Sprintf("Bipartite(|V1|=%d, |V2|=%d, |E|=%d)", g.NumV1(), g.NumV2(), g.NumEdges())
}
