package core

import "butterfly/internal/sparse"

// This file implements the work-weighted parallel scheduler shared by
// the counting, per-vertex and per-edge kernels.
//
// The old scheduler claimed fixed chunks of 64 exposed vertices from an
// atomic cursor. On hub-packed labelings (KONECT datasets whose ids are
// assigned in weight order, e.g. the record-labels stand-in) a single
// chunk can contain every hub, serializing most of the graph's wedge
// work on one worker — docs/PERFORMANCE.md measured max/mean worker
// load of 1.68 on six workers. ParButterfly (Shi & Shun 2019) shows
// that work-aware partitioning from per-vertex work estimates is what
// makes parallel butterfly kernels scale on skewed graphs.
//
// The scheduler here:
//
//  1. computes an exact per-exposed-vertex wedge-work vector in one
//     pass over the secondary CSR (see workPerExposed);
//  2. cuts the traversal into *work-weighted* units with guided
//     (decreasing) chunk targets, so every unit carries roughly equal
//     wedge work no matter how skewed the labeling is;
//  3. splits any single vertex whose work exceeds the spill budget
//     ("hub splitting") by neighbor-list range, with per-worker partial
//     accumulators merged in a reduction phase.
//
// Workers still claim units dynamically with an atomic cursor, so the
// schedule degrades gracefully under OS noise; WorkBalance simulates
// the steady state deterministically for single-CPU CI environments.

// Unit kinds.
const (
	// unitChunk is a contiguous run of whole exposed vertices in
	// traversal-index space.
	unitChunk = iota
	// unitYSeg is one neighbor-list segment of a split hub; segments
	// export partial wedge accumulators that a reduction phase merges.
	unitYSeg
)

// schedUnit is one schedulable piece of a traversal.
type schedUnit struct {
	kind int
	// lo, hi bound the unit: a traversal-index range for unitChunk, a
	// neighbor-list range for unitYSeg.
	lo, hi int
	// hub is the exposed-side id of the split vertex (unitYSeg only).
	hub int
	// spill indexes schedule.spills and seg the segment slot within it
	// (unitYSeg only; -1 otherwise).
	spill, seg int
	// work is the unit's wedge-work estimate, used by the simulator.
	work int64
}

// spillInfo describes one hub split into neighbor-list segments that
// require a reduction.
type spillInfo struct {
	k    int // exposed-side id
	segs int // number of unitYSeg segments emitted
}

// schedule is a deterministic work-weighted partition of a traversal.
type schedule struct {
	units  []schedUnit
	spills []spillInfo
	total  int64 // Σ work
}

// schedTuning overrides the scheduler's constants; the zero value means
// defaults. Tests shrink minWork to force hub splitting on small
// graphs.
type schedTuning struct {
	// chunkDiv controls the guided target: a chunk closes once it holds
	// ≥ remaining/(threads·chunkDiv) work, so chunk sizes decrease as
	// the traversal drains.
	chunkDiv int
	// spillDiv sets the spill budget total/(threads·spillDiv); any
	// single vertex above it is split, and chunk targets never drop
	// below it.
	spillDiv int
	// minWork floors both budgets so tiny graphs schedule as one unit
	// instead of spawning workers that cannot amortize their start-up.
	minWork int64
}

const (
	defaultChunkDiv = 2
	defaultSpillDiv = 8
	defaultMinWork  = 256
)

func (t schedTuning) norm() schedTuning {
	if t.chunkDiv <= 0 {
		t.chunkDiv = defaultChunkDiv
	}
	if t.spillDiv <= 0 {
		t.spillDiv = defaultSpillDiv
	}
	if t.minWork <= 0 {
		t.minWork = defaultMinWork
	}
	return t
}

// workPerExposed returns the exact restricted wedge work of every
// exposed vertex — Σ over its neighbors y of the length of y's
// restricted partner list — in ONE pass over the secondary CSR, with no
// searches: in a sorted partner row z_0 < … < z_{d−1}, vertex z_i has
// exactly i partners below it and d−1−i above it.
func workPerExposed(exposed, secondary *sparse.CSR, above bool) []int64 {
	work := make([]int64, exposed.R)
	for y := 0; y < secondary.R; y++ {
		row := secondary.Row(y)
		if above {
			d := len(row) - 1
			for i, z := range row {
				work[z] += int64(d - i)
			}
		} else {
			for i, z := range row {
				work[z] += int64(i)
			}
		}
	}
	return work
}

// workFullExposed is the all-partners variant used by the per-vertex
// and per-edge sweeps, whose unbounded gather walks every neighbor's
// whole row: Σ_{y∈N(k)} deg y.
func workFullExposed(exposed, secondary *sparse.CSR) []int64 {
	work := make([]int64, exposed.R)
	for y := 0; y < secondary.R; y++ {
		row := secondary.Row(y)
		for _, z := range row {
			work[z] += int64(len(row))
		}
	}
	return work
}

// restrictedSegWork returns a closure computing the restricted wedge
// work of the yi-th neighbor of exposed vertex k — used to cut a
// spilled hub's neighbor list into balanced segments.
func restrictedSegWork(exposed, secondary *sparse.CSR, above bool) func(k, yi int) int64 {
	return func(k, yi int) int64 {
		y := exposed.Row(k)[yi]
		prow := secondary.Row(int(y))
		if above {
			return int64(len(prow) - searchInt32(prow, int32(k)+1))
		}
		return int64(searchInt32(prow, int32(k)))
	}
}

// buildSchedule partitions a traversal over len(work) exposed vertices
// into work-weighted units. desc reverses the traversal order. segWork
// and deg describe hub neighbor lists for neighbor-range splitting.
func buildSchedule(work []int64, desc bool, threads int, tun schedTuning,
	segWork func(k, yi int) int64, deg func(k int) int) *schedule {

	tun = tun.norm()
	if threads < 1 {
		threads = 1
	}
	n := len(work)
	s := &schedule{}
	for _, w := range work {
		s.total += w
	}

	spillBudget := s.total / int64(threads*tun.spillDiv)
	if spillBudget < tun.minWork {
		spillBudget = tun.minWork
	}

	remaining := s.total
	curLo, curWork := -1, int64(0)
	flush := func(hiIdx int) {
		if curLo >= 0 {
			s.units = append(s.units, schedUnit{
				kind: unitChunk, lo: curLo, hi: hiIdx,
				hub: -1, spill: -1, seg: -1, work: curWork,
			})
			curLo, curWork = -1, 0
		}
	}

	for idx := 0; idx < n; idx++ {
		k := idx
		if desc {
			k = n - 1 - idx
		}
		w := work[k]
		if w > spillBudget && deg(k) > 1 {
			flush(idx)
			s.addSpill(idx, k, w, spillBudget, segWork, deg)
			remaining -= w
			continue
		}
		if curLo < 0 {
			curLo = idx
		}
		curWork += w
		remaining -= w
		// Guided target: early chunks are large, later ones shrink with
		// the remaining work, floored at the spill budget.
		target := remaining / int64(threads*tun.chunkDiv)
		if target < spillBudget {
			target = spillBudget
		}
		if curWork >= target {
			flush(idx + 1)
		}
	}
	flush(n)
	return s
}

// addSpill splits hub k (work w > budget) into segments. idx is the
// hub's traversal index, used for the unsplittable fallback.
func (s *schedule) addSpill(idx, k int, w, budget int64,
	segWork func(k, yi int) int64, deg func(k int) int) {

	d := deg(k)
	segs := int((w + budget - 1) / budget)
	if segs > d {
		segs = d
	}
	if segs < 2 {
		// Unsplittable (degree ≤ 1 hubs never reach here; deg 2+ with
		// segs computed 1 cannot happen since w > budget, but keep a
		// correct fallback).
		s.units = append(s.units, schedUnit{
			kind: unitChunk, lo: idx, hi: idx + 1,
			hub: -1, spill: -1, seg: -1, work: w,
		})
		return
	}

	spillIdx := len(s.spills)
	per := (w + int64(segs) - 1) / int64(segs)
	ylo, seg := 0, 0
	var sw int64
	for yi := 0; yi < d; yi++ {
		sw += segWork(k, yi)
		if seg < segs-1 && sw >= per {
			s.units = append(s.units, schedUnit{
				kind: unitYSeg, lo: ylo, hi: yi + 1,
				hub: k, spill: spillIdx, seg: seg, work: sw,
			})
			seg++
			ylo, sw = yi+1, 0
		}
	}
	// Final segment takes the remainder (possibly zero work, but it
	// must exist so the neighbor list is fully covered).
	s.units = append(s.units, schedUnit{
		kind: unitYSeg, lo: ylo, hi: d,
		hub: k, spill: spillIdx, seg: seg, work: sw,
	})
	s.spills = append(s.spills, spillInfo{k: k, segs: seg + 1})
}

// simulate assigns units to the least-loaded of `threads` workers in
// unit order — the deterministic steady-state model of dynamic
// claiming — and returns per-worker work totals.
func (s *schedule) simulate(threads int) []int64 {
	loads := make([]int64, threads)
	for _, u := range s.units {
		min := 0
		for t := 1; t < threads; t++ {
			if loads[t] < loads[min] {
				min = t
			}
		}
		loads[min] += u.work
	}
	return loads
}

// orient returns the exposed and secondary adjacency for an invariant:
// the column-partitioned family (1–4) exposes V2 (rows of Aᵀ), the
// row-partitioned family (5–8) exposes V1 (rows of A).
func orient(g interface {
	Adj() *sparse.CSR
	AdjT() *sparse.CSR
}, inv Invariant) (exposed, secondary *sparse.CSR) {
	if inv.PartitionsV2() {
		return g.AdjT(), g.Adj()
	}
	return g.Adj(), g.AdjT()
}
