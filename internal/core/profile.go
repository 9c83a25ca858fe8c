package core

import (
	"fmt"

	"butterfly/internal/graph"
)

// WorkPerVertex returns, for each exposed-side vertex of the
// invariant, the number of wedge steps its iteration performs (the
// inner-loop partner visits of update (18)). Σ of the vector is the
// invariant's total work. Cost: one pass over the secondary CSR, with
// no searches — in a sorted partner row the i-th entry has exactly i
// partners below it (see workPerExposed).
func WorkPerVertex(g *graph.Bipartite, inv Invariant) []int64 {
	_, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	return workPerExposed(exposed, secondary, above)
}

// WorkBalance simulates the work-weighted parallel scheduler
// deterministically: the traversal is cut into work-weighted units —
// guided decreasing chunks plus neighbor-list segments of any hub above
// the spill budget (see buildSchedule) — and each unit goes to the
// currently least-loaded of `threads` workers, the steady-state
// behaviour of the dynamic unit cursor in countParallel. It returns
// the per-worker wedge-step totals; max/mean of the result is the
// load-imbalance factor, 1.0 being perfect.
//
// Σ of the returned loads equals Σ WorkPerVertex exactly — the
// conservation law the tests pin down.
//
// The function exists because single-CPU CI environments cannot
// observe wall-clock speedup (see EXPERIMENTS.md, Fig 11): balance of
// the simulated schedule is the machine-independent part of the
// parallel claim.
func WorkBalance(g *graph.Bipartite, inv Invariant, threads int) []int64 {
	if threads < 1 {
		panic(fmt.Sprintf("core: WorkBalance threads = %d", threads))
	}
	desc, above := inv.geometry()
	exposed, secondary := orient(g, inv)
	work := workPerExposed(exposed, secondary, above)
	sched := buildSchedule(work, desc, threads, schedTuning{},
		restrictedSegWork(exposed, secondary, above), exposed.RowDeg)
	return sched.simulate(threads)
}

// ImbalanceFactor reduces a per-worker load vector to max/mean;
// returns 1 for empty or all-zero loads.
func ImbalanceFactor(loads []int64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max) / mean
}
