package core

import (
	"context"
	"sync/atomic"

	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// EdgeSupport returns the support matrix S_w of equation (25): a matrix
// with the pattern of A whose (u, v) value is the number of butterflies
// containing the edge (u, v). Σ of all supports is 4·ΞG (a butterfly
// has four edges).
//
// Per exposed vertex u the wedge multiplicities β_uw are accumulated
// once (equation (23)'s Σ_w |N(u)∩N(w)| term); each incident edge
// (u, v) then gathers Σ_{w∈N(v),w≠u}(β_uw − 1), which is equation (24)
// evaluated without materializing AAᵀA — the masked-SpGEMM structure of
// (25) executed one row at a time.
//
// Orientation: the sweep's work is Σ_{v∈V2} deg(v)² when exposing V1
// and Σ_{u∈V1} deg(u)² when exposing V2, so EdgeSupport computes on
// the cheaper side and transposes the result back into A's pattern.
func EdgeSupport(g *graph.Bipartite) *sparse.CSR {
	s, _ := EdgeSupportContext(context.Background(), g)
	return s
}

// EdgeSupportContext is EdgeSupport with cooperative cancellation: a
// cancelled ctx stops the sweep at its next checkpoint (every
// stopStride+1 rows) and the call returns ctx.Err().
func EdgeSupportContext(ctx context.Context, g *graph.Bipartite) (*sparse.CSR, error) {
	if edgeSupportOrientationCost(g) > edgeSupportOrientationCost(g.Transposed()) {
		s, err := EdgeSupportParallelInto(ctx, nil, g.Transposed(), 1, nil)
		if err != nil {
			return nil, err
		}
		return sparse.Transpose(s), nil
	}
	return EdgeSupportParallelInto(ctx, nil, g, 1, nil)
}

// edgeSupportOrientationCost estimates the β-accumulation work of an
// exposed-V1 sweep: Σ_{v∈V2} deg(v)².
func edgeSupportOrientationCost(g *graph.Bipartite) int64 {
	var c int64
	for v := 0; v < g.NumV2(); v++ {
		d := int64(g.DegreeV2(v))
		c += d * d
	}
	return c
}

// EdgeSupportParallel computes the same matrix with up to `threads`
// workers; each worker owns disjoint rows of the output.
func EdgeSupportParallel(g *graph.Bipartite, threads int) *sparse.CSR {
	if threads <= 1 {
		return EdgeSupport(g)
	}
	s, _ := EdgeSupportParallelInto(context.Background(), nil, g, threads, nil)
	return s
}

// EdgeSupportParallelInto is the allocation-conscious, cancellable
// form used by peeling loops: vals (len ≥ NNZ, or nil to allocate)
// receives the support values of A's rows and scratch comes from the
// arena, so repeated rounds reuse every buffer. Rows are scheduled by
// work units — a hub row caps its chunk — but stay atomic, because the
// per-edge gather needs the row's complete β accumulator; splitting
// hub rows is the counting kernel's job, not the support sweep's.
// Cancelling ctx stops the sweep at its next checkpoint and returns
// ctx.Err().
func EdgeSupportParallelInto(ctx context.Context, vals []int64, g *graph.Bipartite, threads int, a *Arena) (*sparse.CSR, error) {
	adj := g.Adj()
	if vals == nil {
		vals = make([]int64, adj.NNZ())
	}
	out := &sparse.CSR{R: adj.R, C: adj.C, Ptr: adj.Ptr, Col: adj.Col, Val: vals[:adj.NNZ()]}
	err := runContext(ctx, func(stop *atomic.Bool) {
		sw := edgeSweep(g, out.Val)
		if threads > 1 {
			sched := buildSchedule(workFullExposed(g.Adj(), g.AdjT()), false, threads, schedTuning{}, nil,
				func(int) int { return 1 }) // rows are atomic: never split
			if len(sched.units) > 1 {
				sw.par(sched, threads, a, stop)
				return
			}
		}
		sw.seq(a, stop)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// edgeSweep is the support sweep over the rows of A: exposed vertex u
// gathers every partner, itself included, and edgeFinish fills the
// supports of u's edges into vals.
func edgeSweep(g *graph.Bipartite, vals []int64) sweep {
	return sweep{exposed: g.Adj(), secondary: g.AdjT(), all: true, target: toEdges, out: vals}
}

// edgeFinish evaluates equation (25) for row u into sw.out. The
// all-partners gather leaves β_uw in acc for every w, u's own entry
// acc[u] = deg u included, so (AAᵀA)_uv = Σ_{w∈N(v)} β_uw and
//
//	support(u, v) = Σ_{w∈N(v)} β_uw − deg u − deg v + 1,
//
// one branch-free pass over each N(v). It then resets the accumulator.
func edgeFinish(sw *sweep, ws *workspace, u int) {
	adj, adjT := sw.exposed, sw.secondary
	acc, base := ws.acc, adj.Ptr[u]
	du := int64(acc[u])
	for k, v := range adj.Row(u) {
		row := adjT.Row(int(v))
		var s int64
		for _, w := range row {
			s += int64(acc[w])
		}
		sw.out[base+int64(k)] = s - du - int64(len(row)) + 1
	}
	for _, w := range ws.touched {
		acc[w] = 0
	}
	ws.touched = ws.touched[:0]
}

// EdgeSupportSpGEMM computes the support matrix by executing equation
// (25) literally on the sparse substrate:
//
//	S_w = (AAᵀA − diag(AAᵀ)·1ᵀ − 1·diag(AᵀA)ᵀ + J) ∘ A
//
// The (AAᵀ)·A term is evaluated with a masked SpGEMM (only positions
// where A stores an edge are kept), so the dense-ish product never
// materializes; the rank-one correction terms reduce to the endpoint
// degrees at each stored edge. It is the "pure linear algebra" per-edge
// algorithm — a cross-validation of the accumulator sweep and the
// masked-product kernel, asymptotically equivalent but constant-factor
// heavier (it materializes AAᵀ).
func EdgeSupportSpGEMM(g *graph.Bipartite) *sparse.CSR {
	adj, adjT := g.Adj(), g.AdjT()
	b := sparse.MxM(adj, adjT, sparse.PlusTimes)            // AAᵀ
	core := sparse.MxMMasked(b, adj, adj, sparse.PlusTimes) // (AAᵀA) ∘ A
	out := core.Clone()
	for u := 0; u < out.R; u++ {
		du := int64(g.DegreeV1(u))
		row := out.Row(u)
		vals := out.Val[out.Ptr[u]:out.Ptr[u+1]]
		for k, v := range row {
			vals[k] -= du + int64(g.DegreeV2(int(v))) - 1
		}
	}
	return out
}

// CountFromEdgeSupport recovers ΞG from a support matrix: Σ/4.
// Used as a consistency check and by the wing-peeling code.
func CountFromEdgeSupport(s *sparse.CSR) int64 {
	total := sparse.SumAll(s)
	if total%4 != 0 {
		panic("core: edge-support sum not divisible by 4")
	}
	return total / 4
}
