package core

import "butterfly/internal/sparse"

// This file holds the per-exposed-vertex body of the sparse wedge
// kernel shared by the sequential and parallel counting paths, plus the
// segment export and reduction the parallel engine uses to split hubs
// by neighbor range.
//
// Exactness: every path computes the same integer wedge multiplicities
// β_z = |N(k) ∩ N(z)| over the same restricted partner range, so totals
// are bit-identical to the sequential reference regardless of tuning or
// thread count (asserted by TestKernelExhaustive3x3 and the quick-check
// suite in kernel_test.go).

// hubPair is one (partner, wedge-count) export of a split hub segment.
type hubPair struct {
	z int32
	c int32
}

// accumulate adds to acc the restricted wedges of exposed vertex k
// through its neighbors ys: for every y ∈ ys, each partner z ∈ N(y)
// with z > k (above) or z < k (below) increments acc[z]. Partners seen
// for the first time are appended to touched, which is returned.
func accumulate(acc, touched, ys []int32, secondary *sparse.CSR, k int32, above bool) []int32 {
	for _, y := range ys {
		prow := secondary.Row(int(y))
		if above {
			for _, z := range prow[searchInt32(prow, k+1):] {
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		} else {
			for _, z := range prow {
				if z >= k {
					break
				}
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		}
	}
	return touched
}

// kern is one parallel worker's view of a run: the oriented adjacency
// plus a private workspace checked out of an arena.
type kern struct {
	exposed, secondary *sparse.CSR
	above              bool
	ws                 *workspace
	a                  *Arena
}

// newKern checks a workspace out of a (nil allowed) for a worker.
func newKern(exposed, secondary *sparse.CSR, above bool, a *Arena) *kern {
	return &kern{exposed: exposed, secondary: secondary, above: above, ws: a.get(exposed.R), a: a}
}

// release returns the workspace to the arena.
func (kn *kern) release() { kn.a.put(kn.ws) }

// contrib returns exposed vertex k's butterfly contribution
// Σ_z C(β_z, 2) over its restricted partner range.
func (kn *kern) contrib(k int) int64 {
	kn.ws.touched = accumulate(kn.ws.acc, kn.ws.touched, kn.exposed.Row(k), kn.secondary, int32(k), kn.above)
	return flush(kn.ws.acc, &kn.ws.touched)
}

// segPairs runs the restricted sparse accumulation for neighbor-list
// segment [ylo, yhi) of hub k and exports the partial wedge counts.
// C(β, 2) is not additive across segments, so the counts must be merged
// by reducePairs before the butterfly formula is applied.
func (kn *kern) segPairs(k, ylo, yhi int) []hubPair {
	acc := kn.ws.acc
	touched := accumulate(acc, kn.ws.touched, kn.exposed.Row(k)[ylo:yhi], kn.secondary, int32(k), kn.above)
	out := make([]hubPair, len(touched))
	for i, z := range touched {
		out[i] = hubPair{z: z, c: acc[z]}
		acc[z] = 0
	}
	kn.ws.touched = touched[:0]
	return out
}

// reducePairs merges the partial wedge counts of one split hub and
// applies Σ_z C(β_z, 2). Summing the integer partials reconstructs the
// exact multiset a single-worker accumulation would have produced.
func (kn *kern) reducePairs(segs [][]hubPair) int64 {
	acc, touched := kn.ws.acc, kn.ws.touched
	for _, seg := range segs {
		for _, p := range seg {
			if acc[p.z] == 0 {
				touched = append(touched, p.z)
			}
			acc[p.z] += p.c
		}
	}
	t := flush(acc, &touched)
	kn.ws.touched = touched
	return t
}
