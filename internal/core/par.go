package core

import (
	"sync/atomic"

	"butterfly/internal/graph"
)

// countParallel runs the invariant's algorithm with up to `threads`
// workers on the work-weighted schedule.
//
// The outer loop over exposed vertices is embarrassingly parallel: the
// per-iteration update (18) only reads the adjacency and writes a
// worker-private wedge accumulator. The engine computes the exact
// per-vertex wedge work in one CSR pass, builds a work-weighted
// schedule (sched.go) — guided decreasing chunks plus hub splitting for
// any vertex above the spill budget — and runs the count sweep on it
// (sweep.par). A schedule of fewer than two units runs sequentially.
//
// Every path computes the same integer wedge multiplicities, so the
// result is bit-identical to the sequential algorithm (asserted by the
// tests) for every tuning and thread count. A non-nil stop flag is
// polled between schedule units and every stopStride+1 vertices within
// a chunk; the partial total returned after an abort is unspecified —
// CountContext discards it.
func countParallel(g *graph.Bipartite, inv Invariant, threads int, a *Arena, stop *atomic.Bool) int64 {
	return countParallelTuned(g, inv, threads, a, schedTuning{}, stop)
}

// countParallelTuned is countParallel with explicit scheduler tuning;
// tests shrink the budgets to force hub splitting on small graphs.
func countParallelTuned(g *graph.Bipartite, inv Invariant, threads int, a *Arena, tun schedTuning, stop *atomic.Bool) int64 {
	sw := countSweep(g, inv)
	work := workPerExposed(sw.exposed, sw.secondary, sw.above)
	sched := buildSchedule(work, sw.desc, threads, tun,
		restrictedSegWork(sw.exposed, sw.secondary, sw.above), sw.exposed.RowDeg)
	// A unit is the smallest indivisible piece of work, so a schedule
	// of one unit gains nothing from workers.
	if threads <= 1 || len(sched.units) <= 1 {
		return sw.seq(a, stop)
	}
	return sw.par(sched, threads, a, stop)
}
