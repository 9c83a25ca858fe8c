package core

import (
	"sync"
	"sync/atomic"

	"butterfly/internal/graph"
)

// countParallel runs the invariant's algorithm with up to `threads`
// workers on the work-weighted schedule.
//
// The outer loop over exposed vertices is embarrassingly parallel: the
// per-iteration update (18) only reads the adjacency and writes a
// worker-private wedge accumulator. The engine:
//
//  1. computes the exact per-vertex wedge work in one CSR pass;
//  2. builds a work-weighted schedule (sched.go) — guided decreasing
//     chunks plus hub splitting for any vertex above the spill budget;
//  3. clamps the worker count to the number of schedule units (a
//     hub-heavy graph with few exposed vertices still gets as many
//     workers as it has units — the old clamp counted vertices);
//  4. phase 1: workers claim units from an atomic cursor. Chunks run
//     the hybrid kernel per vertex; candidate-range segments of
//     bitset-path hubs are additive and accumulate directly;
//     neighbor-list segments of sparse hubs export partial wedge
//     counts;
//  5. phase 2: split-hub partials are merged and C(β, 2) applied.
//
// Every path computes the same integer wedge multiplicities, so the
// result is bit-identical to the sequential algorithm (asserted by the
// tests) for every policy, tuning and thread count.
// A non-nil stop flag is polled by every worker between schedule
// units (and by the threads≤1 fallback between exposed vertices); a
// raised flag makes workers abandon the cursor race, so the whole pool
// drains within one unit's worth of work. The partial total returned
// after an abort is unspecified — CountContext discards it.
func countParallel(g *graph.Bipartite, inv Invariant, threads int, pol HubPolicy, a *Arena, stop *atomic.Bool) int64 {
	return countParallelTuned(g, inv, threads, pol, a, schedTuning{}, stop)
}

// countParallelTuned is countParallel with explicit scheduler tuning;
// tests shrink the budgets to force hub splitting on small graphs.
func countParallelTuned(g *graph.Bipartite, inv Invariant, threads int, pol HubPolicy, a *Arena, tun schedTuning, stop *atomic.Bool) int64 {
	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	nExp := exposed.R

	work := workPerExposed(exposed, secondary, above)
	ks := newKernShared(exposed, secondary, above, pol, work)
	sched := buildSchedule(work, desc, threads, tun,
		restrictedSegWork(exposed, secondary, above),
		exposed.RowDeg, ks.bitsSplitFunc(), exposed.Ptr)

	// Clamp on schedulable work units, not vertex count: a unit is the
	// smallest indivisible piece of work, so extra workers would only
	// spin on the cursor.
	if threads > len(sched.units) {
		threads = len(sched.units)
	}
	if threads <= 1 {
		kn := ks.worker(a)
		defer kn.release()
		var total int64
		for idx := 0; idx < nExp; idx++ {
			if idx&stopStride == 0 && stopped(stop) {
				return total
			}
			k := idx
			if desc {
				k = nExp - 1 - idx
			}
			total += kn.contrib(k)
		}
		return total
	}

	// parts[i][s] holds segment s of spill i, written by exactly one
	// phase-1 unit and read after the wg.Wait barrier.
	parts := make([][][]hubPair, len(sched.spills))
	for i, sp := range sched.spills {
		parts[i] = make([][]hubPair, sp.segs)
	}

	var (
		cursor atomic.Int64
		total  atomic.Int64
		wg     sync.WaitGroup
	)
	nUnits := len(sched.units)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kn := ks.worker(a)
			defer kn.release()
			var local int64
			for {
				i := int(cursor.Add(1)) - 1
				if i >= nUnits || stopped(stop) {
					break
				}
				u := &sched.units[i]
				switch u.kind {
				case unitChunk:
					for idx := u.lo; idx < u.hi; idx++ {
						k := idx
						if desc {
							k = nExp - 1 - idx
						}
						local += kn.contrib(k)
					}
				case unitZSeg:
					local += kn.contribBitsRange(u.hub, u.lo, u.hi)
				case unitYSeg:
					parts[u.spill][u.seg] = kn.segPairs(u.hub, u.lo, u.hi)
				}
			}
			total.Add(local)
		}()
	}
	wg.Wait()

	// Phase 2: reduce split-hub partials. Spills are rare (one per hub
	// above the spill budget), so a small second pool suffices. An
	// aborted phase 1 may have left nil segments in parts; the whole
	// reduction is skipped then — the partial total is discarded by the
	// cancelling caller anyway.
	if len(sched.spills) > 0 && !stopped(stop) {
		reducers := threads
		if reducers > len(sched.spills) {
			reducers = len(sched.spills)
		}
		var (
			rc  atomic.Int64
			wg2 sync.WaitGroup
		)
		for t := 0; t < reducers; t++ {
			wg2.Add(1)
			go func() {
				defer wg2.Done()
				kn := ks.worker(a)
				defer kn.release()
				var local int64
				for {
					i := int(rc.Add(1)) - 1
					if i >= len(parts) {
						break
					}
					local += kn.reducePairs(parts[i])
				}
				total.Add(local)
			}()
		}
		wg2.Wait()
	}
	return total.Load()
}
