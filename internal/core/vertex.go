package core

import (
	"context"
	"sync/atomic"

	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// Side selects a bipartition side for per-vertex quantities.
type Side int

const (
	// SideV1 refers to the row side of the biadjacency matrix.
	SideV1 Side = iota
	// SideV2 refers to the column side.
	SideV2
)

// String names the side.
func (s Side) String() string {
	if s == SideV1 {
		return "V1"
	}
	return "V2"
}

func vertexOrient(g *graph.Bipartite, side Side) (exposed, secondary *sparse.CSR) {
	if side == SideV2 {
		return g.AdjT(), g.Adj()
	}
	return g.Adj(), g.AdjT()
}

// VertexButterflies returns the number of butterflies each vertex of
// the chosen side participates in — the vector s of equation (19)
// (with the ½ per-vertex coefficient; see the erratum note on
// dense.SpecVertexButterflies). Σ of the result is 2·ΞG.
//
// The computation exposes each vertex u once and accumulates wedge
// multiplicities β against partners w < u, crediting C(β, 2) to both
// endpoints, so each pair is touched exactly once.
func VertexButterflies(g *graph.Bipartite, side Side) []int64 {
	return VertexButterfliesMaskedParallel(g, side, nil, 1)
}

// VertexButterfliesParallel computes the same vector with up to
// `threads` workers on the work-weighted schedule; results are
// identical to the sequential version.
func VertexButterfliesParallel(g *graph.Bipartite, side Side, threads int) []int64 {
	return VertexButterfliesMaskedParallel(g, side, nil, threads)
}

// VertexButterfliesMasked computes per-vertex butterfly counts for the
// chosen side counting only butterflies whose two exposed-side vertices
// are both active. Entries of inactive vertices are zero.
func VertexButterfliesMasked(g *graph.Bipartite, side Side, active []bool) []int64 {
	return VertexButterfliesMaskedParallel(g, side, active, 1)
}

// VertexButterfliesMaskedParallel is VertexButterfliesMasked with up to
// `threads` workers on the work-weighted schedule; results are
// identical to the sequential version.
func VertexButterfliesMaskedParallel(g *graph.Bipartite, side Side, active []bool, threads int) []int64 {
	exposed, _ := vertexOrient(g, side)
	s := make([]int64, exposed.R)
	_ = VertexButterfliesMaskedInto(context.Background(), s, g, side, active, threads, nil)
	return s
}

// VertexButterfliesMaskedInto is the allocation-conscious,
// cancellable form behind every per-vertex entry point: it fills s
// (the side's length; zeroed first, so one buffer serves every round
// of a peeling loop) with per-vertex butterfly counts, masked to
// active vertices unless active is nil, with up to `threads` workers
// and scratch from a (nil allowed). Repeated sequential rounds over
// the same graph allocate nothing (see TestTipRoundsArenaZeroAlloc).
//
// Sequentially it runs the half kernel: each active vertex u gathers
// the partners w < u and C(β, 2) is credited to both endpoints when w
// is active too. The parallel kernel gathers all partners of u (twice
// the wedge work, but every worker writes only its own s[u]) on the
// work-weighted schedule, splitting hubs. Either way the mask applies
// per partner when the accumulator is drained, not per wedge.
//
// Cancelling ctx stops the sweep at its next checkpoint and returns
// ctx.Err(); s then holds a partial result.
func VertexButterfliesMaskedInto(ctx context.Context, s []int64, g *graph.Bipartite, side Side, active []bool, threads int, a *Arena) error {
	exposed, secondary := vertexOrient(g, side)
	n := exposed.R
	if len(s) != n {
		panic("core: vertex output length mismatch")
	}
	if active != nil && len(active) != n {
		panic("core: active mask length mismatch")
	}
	clear(s)
	return runContext(ctx, func(stop *atomic.Bool) {
		if threads > 1 {
			work, segW := vertexWork(exposed, secondary, active)
			if sched := buildSchedule(work, false, threads, schedTuning{}, segW, exposed.RowDeg); len(sched.units) > 1 {
				full := sweep{exposed: exposed, secondary: secondary, all: true, target: toVertexFull, active: active, out: s}
				full.par(sched, threads, a, stop)
				return
			}
		}
		half := sweep{exposed: exposed, secondary: secondary, target: toVertexHalf, active: active, out: s}
		half.seq(a, stop)
	})
}

// flushVertex is the per-vertex kernels' finish: Σ C(β_z, 2) over the
// touched partners z that are active (all of them when active is nil),
// each term also credited to s[z] when s is non-nil — the half kernel
// credits both endpoints of a pair. The mask applies here, once per
// partner: β itself does not depend on which vertices are active.
func flushVertex(ws *workspace, active []bool, s []int64) int64 {
	acc, touched := ws.acc, ws.touched
	var t int64
	for _, z := range touched {
		c := int64(acc[z])
		acc[z] = 0
		if active != nil && !active[z] {
			continue
		}
		b := c * (c - 1) / 2
		t += b
		if s != nil {
			s[z] += b
		}
	}
	ws.touched = touched[:0]
	return t
}

// vertexWork returns the per-vertex work of the all-partners sweep —
// inactive vertices are not exposed and cost nothing — and the
// per-neighbor segment work used to split hubs.
func vertexWork(exposed, secondary *sparse.CSR, active []bool) ([]int64, func(k, yi int) int64) {
	work := workFullExposed(exposed, secondary)
	if active != nil {
		for k, on := range active {
			if !on {
				work[k] = 0
			}
		}
	}
	return work, func(k, yi int) int64 {
		return int64(secondary.RowDeg(int(exposed.Row(k)[yi])))
	}
}
