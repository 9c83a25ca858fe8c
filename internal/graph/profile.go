package graph

import (
	"sync/atomic"

	"butterfly/internal/sparse"
)

// DegreeProfile is the cheap shape summary the automatic relayout
// reads: the edge count and the per-side degree skew (max/mean). It is
// computed from the CSR row pointers in one O(|V1|+|V2|) pass — no edge
// traversal — and cached on the graph, so every decision after the
// first is a pointer load.
//
// Skew is the hub indicator: a side whose heaviest vertex carries many
// times the mean degree concentrates wedge work (and accumulator
// traffic) on few ids, which is what the degree-ordered relayout keys
// off.
type DegreeProfile struct {
	NumEdges       int64
	SkewV1, SkewV2 float64
}

// computeProfile derives the profile from the row-pointer arrays only.
func computeProfile(g *Bipartite) *DegreeProfile {
	p := &DegreeProfile{NumEdges: g.NumEdges()}
	p.SkewV1 = skew(g.adj)
	p.SkewV2 = skew(g.adjT)
	return p
}

// skew returns max/mean of a side's row degrees, or 0 for an empty
// side.
func skew(a *sparse.CSR) float64 {
	if a.R == 0 || a.NNZ() == 0 {
		return 0
	}
	maxDeg := 0
	for i := 0; i < a.R; i++ {
		if d := a.RowDeg(i); d > maxDeg {
			maxDeg = d
		}
	}
	return float64(maxDeg) / (float64(a.NNZ()) / float64(a.R))
}

// Profile returns the graph's degree profile, computing it on first use
// and caching it for the graph's lifetime (the graph is immutable, so
// the profile never invalidates). Safe for concurrent use; a race on
// first use computes the identical value twice and one copy wins.
func (g *Bipartite) Profile() DegreeProfile {
	if p := g.prof.Load(); p != nil {
		return *p
	}
	p := computeProfile(g)
	g.prof.CompareAndSwap(nil, p)
	return *g.prof.Load()
}

// relayout bundles the cached degree-ordered twin with the permutations
// that translate between the public and relayouted id spaces.
type relayout struct {
	g *Bipartite
	// permV1[newID] = oldID, and likewise permV2; see Relabel.
	permV1, permV2 []int32
}

// DegreeOrdered returns the graph relabeled so vertex 0 of each side
// has the largest degree, with the adjacency repacked contiguously in
// the new order — the cache-conscious layout the counting kernels
// stream. The twin is built once per graph (an O(|E|) rebuild) and then
// cached, so repeated counts — serving traffic, -all sweeps, peeling
// oracles — pay only a pointer load. The permutations translate ids:
// permV1[newID] = oldID (and likewise permV2), matching Relabel.
//
// The relayout concentrates two access patterns:
//
//   - wedge accumulation: partner ids of hub wedges collapse into the
//     low indices of the accumulator array, keeping the hot counters in
//     cache no matter how wide the exposed side is;
//   - intersection: hub neighbor lists, the rows every merge touches,
//     pack into the first bytes of the CSR's column array.
//
// Butterfly counts are invariant under relabeling (the paper's
// family-equivalence result), so callers may count on the twin and
// report the result for the original graph unchanged. Per-vertex and
// per-edge outputs must be translated through the permutations; the
// counting core only uses the twin for scalar counts.
//
// Safe for concurrent use; a race on first use builds the twin twice
// and one copy wins.
func (g *Bipartite) DegreeOrdered() (h *Bipartite, permV1, permV2 []int32) {
	if rl := g.degOrd.Load(); rl != nil {
		return rl.g, rl.permV1, rl.permV2
	}
	h, p1, p2 := g.Relabel(OrderDegreeDesc)
	g.degOrd.CompareAndSwap(nil, &relayout{g: h, permV1: p1, permV2: p2})
	rl := g.degOrd.Load()
	return rl.g, rl.permV1, rl.permV2
}

// HasDegreeOrdered reports whether the degree-ordered twin is already
// built, i.e. whether DegreeOrdered is a pointer load.
func (g *Bipartite) HasDegreeOrdered() bool { return g.degOrd.Load() != nil }

// profCache and degOrdCache are the lazily-populated caches embedded in
// Bipartite. They live in their own struct types so Bipartite's
// composite literals elsewhere in the package need no changes.
type profCache = atomic.Pointer[DegreeProfile]
type degOrdCache = atomic.Pointer[relayout]
