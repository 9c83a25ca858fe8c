package core

import (
	"butterfly/internal/bitvec"
	"butterfly/internal/sparse"
)

// This file implements the hybrid intersection kernel: the per-exposed-
// vertex butterfly contribution computed either with the classic sparse
// wedge accumulator or, for dense ("hub") vertices, with bitset
// operations — membership tests against a materialized partner set, and
// word-wise AND + popcount when both sides of an intersection have
// bitsets. Wang et al. 2019's vertex-priority counting motivates giving
// hub rows a different kernel than tail rows; the cost model below picks
// per vertex.
//
// Exactness: every path computes the same integer wedge multiplicities
// β_z = |N(k) ∩ N(z)| over the same restricted partner range, so totals
// are bit-identical to the sequential reference regardless of policy,
// threshold or thread count (asserted by TestHybridKernelExhaustive and
// the quick-check suite in kernel_test.go).

// HubPolicy selects how the hybrid kernel treats dense exposed vertices.
type HubPolicy int

const (
	// HubAuto (the default) picks per vertex from the cost model:
	// the bitset path is taken when the vertex's exact wedge work
	// exceeds the modeled bitset cost (build + candidate scan).
	HubAuto HubPolicy = iota
	// HubNever forces the sparse accumulator path everywhere —
	// equivalent to an infinite density threshold.
	HubNever
	// HubAlways forces the bitset path wherever a candidate range
	// exists — a zero threshold. Used by tests and benchmarks.
	HubAlways
)

// String names the policy.
func (p HubPolicy) String() string {
	switch p {
	case HubAuto:
		return "HubAuto"
	case HubNever:
		return "HubNever"
	case HubAlways:
		return "HubAlways"
	default:
		return "HubPolicy(?)"
	}
}

// hubPair is one (partner, wedge-count) export of a split hub segment.
type hubPair struct {
	z int32
	c int32
}

// kernShared is the read-only state one counting run shares between its
// workers: the oriented adjacency, the per-vertex work vector, the
// bitset-path decisions, and the pre-materialized hub bitsets.
type kernShared struct {
	exposed, secondary *sparse.CSR
	above              bool

	// work[k] is the exact restricted wedge work of exposed vertex k
	// (nil when the policy is HubNever and no scheduler needs it).
	work []int64
	// useBits[k] reports whether k takes the bitset path (nil when no
	// vertex does).
	useBits []bool
	// hubBits[z] is the materialized neighbor bitset of dense exposed
	// vertices, used both as B_k for a bitset-path vertex and for
	// word-wise AND + popcount when such a vertex appears as a
	// candidate. nil when no vertex takes the bitset path.
	hubBits []*bitvec.Vector
	anyBits bool
}

// hubBitsDegThreshold returns the minimum degree at which an exposed
// vertex's neighbor set is materialized as a bitset: deg ≥ n/64 means
// the bitset (n/64 words) is no larger than the neighbor list itself,
// floored at 16 so tiny rows never materialize.
func hubBitsDegThreshold(nSec int) int {
	t := nSec / 64
	if t < 16 {
		t = 16
	}
	return t
}

// newKernShared analyses the oriented traversal once. work may be nil,
// in which case it is computed here when the policy needs it.
func newKernShared(exposed, secondary *sparse.CSR, above bool, pol HubPolicy, work []int64) *kernShared {
	ks := &kernShared{exposed: exposed, secondary: secondary, above: above, work: work}
	nExp, nSec := exposed.R, secondary.R
	if pol == HubNever || nExp == 0 || nSec == 0 {
		return ks
	}
	if ks.work == nil {
		ks.work = workPerExposed(exposed, secondary, above)
	}

	// Prefix sums of the modeled per-candidate scan cost: a sparse
	// candidate costs its degree (row membership scan against B_k),
	// while a dense candidate — one whose bitset will be materialized —
	// costs only the word count of the AND + popcount.
	var scanCost []int64
	if pol == HubAuto {
		scanCost = make([]int64, nExp+1)
		wordCost := int64((nSec + 63) / 64)
		thresh := hubBitsDegThreshold(nSec)
		for z := 0; z < nExp; z++ {
			c := int64(exposed.RowDeg(z))
			if nSec >= 64 && c >= int64(thresh) && wordCost < c {
				c = wordCost
			}
			scanCost[z+1] = scanCost[z] + c
		}
	}

	useBits := make([]bool, nExp)
	for k := 0; k < nExp; k++ {
		lo, hi := 0, k
		if above {
			lo, hi = k+1, nExp
		}
		if hi <= lo {
			continue
		}
		if pol == HubAlways {
			useBits[k] = true
			ks.anyBits = true
			continue
		}
		// Modeled bitset cost: build + clear B_k (2·deg k), visit every
		// candidate in the restricted range, and scan each candidate
		// (degree or word count, whichever its kernel uses). The sparse
		// path's exact cost is work[k]; take bits when it loses.
		cand := int64(hi - lo)
		costB := 2*int64(exposed.RowDeg(k)) + cand + scanCost[hi] - scanCost[lo]
		if ks.work[k] > costB {
			useBits[k] = true
			ks.anyBits = true
		}
	}
	if !ks.anyBits {
		return ks
	}
	ks.useBits = useBits

	// Materialize neighbor bitsets of dense rows so candidate scans
	// against them become word-wise AND + popcount. Memory is bounded:
	// a bitset costs nSec/8 bytes and is only built for rows of degree
	// ≥ nSec/64, i.e. at most 8 bytes per stored edge in total.
	ks.hubBits = make([]*bitvec.Vector, nExp)
	if nSec >= 64 {
		thresh := hubBitsDegThreshold(nSec)
		for z := 0; z < nExp; z++ {
			if exposed.RowDeg(z) >= thresh {
				b := bitvec.New(nSec)
				for _, y := range exposed.Row(z) {
					b.Set(int(y))
				}
				ks.hubBits[z] = b
			}
		}
	}
	return ks
}

// bitsSplitFunc returns the candidate-range splitter handed to the
// scheduler: for a bitset-path hub the per-candidate contributions are
// additive, so the hub can be split by candidate range with no
// reduction. Returns nil when no vertex takes the bitset path.
func (ks *kernShared) bitsSplitFunc() func(k int) (int, int, bool) {
	if ks.useBits == nil {
		return nil
	}
	nExp := ks.exposed.R
	return func(k int) (int, int, bool) {
		if !ks.useBits[k] {
			return 0, 0, false
		}
		if ks.above {
			return k + 1, nExp, true
		}
		return 0, k, true
	}
}

// kern is one worker's view of a run: the shared state plus a private
// workspace checked out of an arena.
type kern struct {
	*kernShared
	ws *workspace
	a  *Arena
}

// worker checks a workspace out of a (nil allowed) and prepares it for
// this run.
func (ks *kernShared) worker(a *Arena) *kern {
	ws := a.get(ks.exposed.R)
	if ks.anyBits {
		ws.bitset(ks.secondary.R)
	}
	return &kern{kernShared: ks, ws: ws, a: a}
}

// release returns the workspace to the arena.
func (kn *kern) release() { kn.a.put(kn.ws) }

// contrib returns exposed vertex k's butterfly contribution
// Σ_z C(β_z, 2) over its restricted partner range, dispatching between
// the bitset path and the sparse wedge accumulator.
func (kn *kern) contrib(k int) int64 {
	if kn.useBits != nil && kn.useBits[k] {
		return kn.contribBits(k)
	}
	return kn.contribSparse(k)
}

// contribSparse is the classic restricted wedge-accumulator path.
func (kn *kern) contribSparse(k int) int64 {
	acc, touched := kn.ws.acc, kn.ws.touched
	k32 := int32(k)
	for _, y := range kn.exposed.Row(k) {
		prow := kn.secondary.Row(int(y))
		if kn.above {
			for _, z := range prow[searchInt32(prow, k32+1):] {
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		} else {
			for _, z := range prow {
				if z >= k32 {
					break
				}
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		}
	}
	t := flush(acc, &touched)
	kn.ws.touched = touched
	return t
}

// contribBits is the bitset path over k's full restricted range.
func (kn *kern) contribBits(k int) int64 {
	if kn.above {
		return kn.contribBitsRange(k, k+1, kn.exposed.R)
	}
	return kn.contribBitsRange(k, 0, k)
}

// contribBitsRange computes Σ_z C(β_z, 2) for candidates z ∈ [zlo, zhi)
// with bitset operations: β_z is a word-wise AND + popcount when z has a
// materialized bitset, otherwise a membership scan of z's row against
// B_k. Per-candidate contributions are additive, so candidate ranges of
// one hub can be processed by different workers with no reduction.
func (kn *kern) contribBitsRange(k, zlo, zhi int) int64 {
	bk := kn.hubBits[k]
	scratch := bk == nil
	if scratch {
		bk = kn.ws.bits
		for _, y := range kn.exposed.Row(k) {
			bk.Set(int(y))
		}
	}
	var total int64
	for z := zlo; z < zhi; z++ {
		var beta int64
		if hb := kn.hubBits[z]; hb != nil {
			beta = int64(bk.IntersectionCount(hb))
		} else {
			for _, y := range kn.exposed.Row(z) {
				if bk.Get(int(y)) {
					beta++
				}
			}
		}
		total += beta * (beta - 1) / 2
	}
	if scratch {
		for _, y := range kn.exposed.Row(k) {
			bk.Clear(int(y))
		}
	}
	return total
}

// segPairs runs the restricted sparse accumulation for neighbor-list
// segment [ylo, yhi) of hub k and exports the partial wedge counts.
// C(β, 2) is not additive across segments, so the counts must be merged
// by reducePairs before the butterfly formula is applied.
func (kn *kern) segPairs(k, ylo, yhi int) []hubPair {
	acc, touched := kn.ws.acc, kn.ws.touched
	k32 := int32(k)
	for _, y := range kn.exposed.Row(k)[ylo:yhi] {
		prow := kn.secondary.Row(int(y))
		if kn.above {
			for _, z := range prow[searchInt32(prow, k32+1):] {
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		} else {
			for _, z := range prow {
				if z >= k32 {
					break
				}
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		}
	}
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
