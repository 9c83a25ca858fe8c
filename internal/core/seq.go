package core

import (
	"sort"
	"sync/atomic"

	"butterfly/internal/graph"
)

// countSweep is the scalar-count sweep of one invariant — the paper's
// update (18) with the subtraction term folded away: for each exposed
// vertex k (a vertex of the partitioned side) and each of its
// neighbors y, every partner z ∈ N(y) with z<k (eager) or z>k
// (look-ahead) increments a wedge accumulator, and the iteration's
// butterfly contribution is Σ_z C(acc[z], 2). The column-partitioned
// family (1–4) exposes vertices of V2, walking the CSC of A (stored as
// CSR of Aᵀ); the row-partitioned family (5–8) exposes vertices of V1,
// walking the CSR of A — matching the paper's storage discussion in
// Section V. desc reverses the traversal.
func countSweep(g *graph.Bipartite, inv Invariant) sweep {
	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	return sweep{exposed: exposed, secondary: secondary, desc: desc, above: above}
}

// countSeq runs the sequential algorithm for one invariant with scratch
// from the (optional) arena; a non-nil stop flag is polled every
// stopStride+1 exposed vertices.
func countSeq(g *graph.Bipartite, inv Invariant, a *Arena, stop *atomic.Bool) int64 {
	sw := countSweep(g, inv)
	return sw.seq(a, stop)
}

// searchInt32 returns the first index in the sorted slice s whose value
// is ≥ x.
func searchInt32(s []int32, x int32) int {
	// Small rows dominate; a linear scan beats binary search below a
	// threshold and falls back to sort.Search above it.
	if len(s) <= 16 {
		for i, v := range s {
			if v >= x {
				return i
			}
		}
		return len(s)
	}
	return sort.Search(len(s), func(i int) bool { return s[i] >= x })
}

// countBlocked is the blocked refinement of the family: each iteration
// exposes a block of `block` consecutive vertices instead of one
// (a1 → A1 in the FLAME worksheet). Cross-partition butterflies are
// accumulated per exposed vertex against the block-external partner
// region, then block-internal pairs are handled within the block, which
// keeps the accumulator's working set block-local for the second pass.
// The count is identical to the unblocked algorithm for every
// invariant. A non-nil stop flag is polled once per block (blocks are
// small, so abort latency stays bounded).
func countBlocked(g *graph.Bipartite, inv Invariant, block int, a *Arena, stop *atomic.Bool) int64 {
	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	nExp := exposed.R
	ws := a.get(nExp)
	defer a.put(ws)
	var total int64

	for b0 := 0; b0 < nExp; b0 += block {
		if stopped(stop) {
			return total
		}
		b1 := b0 + block
		if b1 > nExp {
			b1 = nExp
		}
		lo, hi := int32(b0), int32(b1) // exposed block is [lo, hi)
		if desc {
			lo, hi = int32(nExp-b1), int32(nExp-b0)
		}

		// Pass 1: cross-partition pairs — partners strictly outside the
		// block on the restriction side, i.e. accumulate bounded by the
		// block edge: z > hi−1 above, z < lo below.
		bound := lo
		if above {
			bound = hi - 1
		}
		for k := lo; k < hi; k++ {
			ws.touched = accumulate(ws.acc, ws.touched, exposed.Row(int(k)), secondary, bound, above)
			total += flush(ws)
		}

		// Pass 2: block-internal pairs — both endpoints inside [lo, hi).
		for k := lo; k < hi; k++ {
			acc, touched := ws.acc, ws.touched
			for _, y := range exposed.Row(int(k)) {
				prow := secondary.Row(int(y))
				start := searchInt32(prow, lo)
				for _, z := range prow[start:] {
					if z >= k {
						break
					}
					if acc[z] == 0 {
						touched = append(touched, z)
					}
					acc[z]++
				}
			}
			ws.touched = touched
			total += flush(ws)
		}
	}
	return total
}
