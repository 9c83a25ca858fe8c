package core

import (
	"sort"
	"sync/atomic"

	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// countSeq runs the sequential algorithm for one invariant. The
// column-partitioned family (1–4) exposes vertices of V2, walking the
// CSC of A (stored as CSR of Aᵀ); the row-partitioned family (5–8)
// exposes vertices of V1, walking the CSR of A — matching the paper's
// storage discussion in Section V. Scratch state comes from the
// (optional) arena; a non-nil stop flag is polled between exposed
// vertices — a point where the workspace is at rest, so an aborted run
// still returns a clean workspace to the arena.
func countSeq(g *graph.Bipartite, inv Invariant, a *Arena, stop *atomic.Bool) int64 {
	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	ws := a.get(exposed.R)
	defer a.put(ws)
	return countFamily(ws.acc, ws.touched, exposed, secondary, desc, above, stop)
}

// stopStride masks the iteration index for cancellation polls: a
// checkpoint every 256 exposed vertices keeps the poll off the hot
// wedge loop while bounding abort latency to a few hundred rows.
const stopStride = 0xFF

// countFamily implements the shared wedge-accumulation kernel behind
// all eight invariants (the paper's update (18) with the subtraction
// term folded away):
//
// for each exposed vertex k (a row of `exposed`, i.e. a vertex of the
// partitioned side), and each of its neighbors y on the opposite side,
// every partner z ∈ N(y) on the exposed side with z<k (eager) or z>k
// (look-ahead) increments a wedge accumulator; the iteration's
// butterfly contribution is Σ_z C(acc[z], 2).
//
// `exposed` holds the adjacency of the partitioned side (rows =
// exposed-side vertices); `secondary` is its transpose. desc reverses
// the traversal; above selects partners with larger index. The caller
// supplies the buffers (len(acc) ≥ exposed.R, all zero; touched empty)
// and gets them back in that state, so a Counter or an arena can reuse
// them across calls.
//
// A non-nil stop flag is polled every stopStride+1 exposed vertices.
// The poll sits at the iteration boundary, after the previous
// iteration's flush, so the accumulator is all-zero and touched empty
// whenever the loop aborts — the buffer at-rest invariant holds for
// partial runs too.
func countFamily(acc, touched []int32, exposed, secondary *sparse.CSR, desc, above bool, stop *atomic.Bool) int64 {
	nExp := exposed.R
	var total int64
	for idx := 0; idx < nExp; idx++ {
		if idx&stopStride == 0 && stopped(stop) {
			return total
		}
		k := idx
		if desc {
			k = nExp - 1 - idx
		}
		touched = accumulate(acc, touched, exposed.Row(k), secondary, int32(k), above)
		total += flush(acc, &touched)
	}
	return total
}

// flush sums C(acc[z], 2) over the touched list and resets it.
func flush(acc []int32, touched *[]int32) int64 {
	var t int64
	for _, z := range *touched {
		c := int64(acc[z])
		t += c * (c - 1) / 2
		acc[z] = 0
	}
	*touched = (*touched)[:0]
	return t
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
func countBlocked(g *graph.Bipartite, inv Invariant, block int, stop *atomic.Bool) int64 {
	desc, above := inv.geometry()
	var exposed, secondary *sparse.CSR
	if inv.PartitionsV2() {
		exposed, secondary = g.AdjT(), g.Adj()
	} else {
		exposed, secondary = g.Adj(), g.AdjT()
	}

	nExp := exposed.R
	acc := make([]int32, nExp)
	touched := make([]int32, 0, 1024)
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
		// block on the restriction side.
		for k := lo; k < hi; k++ {
			for _, y := range exposed.Row(int(k)) {
				prow := secondary.Row(int(y))
				if above {
					for _, z := range prow[searchInt32(prow, hi):] {
						if acc[z] == 0 {
							touched = append(touched, z)
						}
						acc[z]++
					}
				} else {
					for _, z := range prow {
						if z >= lo {
							break
						}
						if acc[z] == 0 {
							touched = append(touched, z)
						}
						acc[z]++
					}
				}
			}
			total += flush(acc, &touched)
		}

		// Pass 2: block-internal pairs — both endpoints inside [lo, hi).
		for k := lo; k < hi; k++ {
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
			total += flush(acc, &touched)
		}
	}
	return total
}
