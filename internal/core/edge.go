package core

import (
	"sync"
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
	if edgeSupportOrientationCost(g) > edgeSupportOrientationCost(g.Transposed()) {
		return sparse.Transpose(edgeSupportRange(g.Transposed(), 0, g.NumV2(), nil))
	}
	return edgeSupportRange(g, 0, g.NumV1(), nil)
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
	return EdgeSupportParallelInto(nil, g, threads, nil)
}

// edgeWorkPerRow returns the modeled support work of each exposed row:
// Σ over incident columns v of deg(v), the row-scan cost shared by the
// β-accumulation and gather passes.
func edgeWorkPerRow(g *graph.Bipartite) []int64 {
	adj, adjT := g.Adj(), g.AdjT()
	work := make([]int64, adj.R)
	for u := 0; u < adj.R; u++ {
		var w int64
		for _, v := range adj.Row(u) {
			w += int64(adjT.RowDeg(int(v)))
		}
		work[u] = w
	}
	return work
}

// EdgeSupportParallelInto is the allocation-conscious form used by
// peeling loops: vals (len ≥ NNZ, or nil to allocate) receives the
// support values and scratch comes from the arena, so repeated rounds
// reuse every buffer. Rows are scheduled by work units — a hub row caps
// its chunk — but stay atomic, because the per-edge gather needs the
// row's complete β accumulator; splitting hub rows is the counting
// kernel's job (see countParallel), not the support sweep's.
func EdgeSupportParallelInto(vals []int64, g *graph.Bipartite, threads int, a *Arena) *sparse.CSR {
	adj := g.Adj()
	if vals == nil {
		vals = make([]int64, adj.NNZ())
	}
	out := &sparse.CSR{R: adj.R, C: adj.C, Ptr: adj.Ptr, Col: adj.Col, Val: vals[:adj.NNZ()]}
	n1 := g.NumV1()

	seq := func() *sparse.CSR {
		ws := a.get(n1)
		touched := ws.touched
		supportRows(g, 0, n1, out.Val, ws.acc, &touched)
		ws.touched = touched
		a.put(ws)
		return out
	}
	if threads <= 1 {
		return seq()
	}

	work := edgeWorkPerRow(g)
	sched := buildSchedule(work, false, threads, schedTuning{}, nil,
		func(int) int { return 1 }) // rows are atomic: never split
	if threads > len(sched.units) {
		threads = len(sched.units)
	}
	if threads <= 1 {
		return seq()
	}

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	nUnits := len(sched.units)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := a.get(n1)
			defer a.put(ws)
			touched := ws.touched
			for {
				i := int(cursor.Add(1)) - 1
				if i >= nUnits {
					break
				}
				u := &sched.units[i]
				supportRows(g, u.lo, u.hi, out.Val, ws.acc, &touched)
			}
			ws.touched = touched
		}()
	}
	wg.Wait()
	return out
}

// edgeSupportRange computes supports for rows [lo, hi); vals may be nil
// to allocate the full output.
func edgeSupportRange(g *graph.Bipartite, lo, hi int, vals []int64) *sparse.CSR {
	adj := g.Adj()
	if vals == nil {
		vals = make([]int64, adj.NNZ())
	}
	acc := make([]int32, g.NumV1())
	touched := make([]int32, 0, 1024)
	supportRows(g, lo, hi, vals, acc, &touched)
	return &sparse.CSR{R: adj.R, C: adj.C, Ptr: adj.Ptr, Col: adj.Col, Val: vals}
}

// supportRows fills support values for exposed rows [lo, hi) of A.
func supportRows(g *graph.Bipartite, lo, hi int, vals []int64, acc []int32, touched *[]int32) {
	adj, adjT := g.Adj(), g.AdjT()
	for u := lo; u < hi; u++ {
		u32 := int32(u)
		urow := adj.Row(u)
		// β_uw for every partner w sharing a neighbor with u.
		for _, v := range urow {
			for _, w := range adjT.Row(int(v)) {
				if w == u32 {
					continue
				}
				if acc[w] == 0 {
					*touched = append(*touched, w)
				}
				acc[w]++
			}
		}
		// Gather per incident edge: support(u,v) = Σ_{w∈N(v),w≠u}(β_uw−1).
		base := adj.Ptr[u]
		for k, v := range urow {
			var s int64
			for _, w := range adjT.Row(int(v)) {
				if w == u32 {
					continue
				}
				s += int64(acc[w]) - 1
			}
			vals[base+int64(k)] = s
		}
		for _, w := range *touched {
			acc[w] = 0
		}
		*touched = (*touched)[:0]
	}
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
