package peel

import (
	"context"

	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// TipDecompositionRounds computes the same tip numbers as
// TipDecomposition with round-synchronous peeling: every round removes
// *all* vertices whose current butterfly count is at or below the
// running level and recomputes the survivors' counts with `threads`
// workers. This is the bulk-parallel peeling structure of ParButterfly
// [12]; peeling is confluent, so the resulting tip numbers are
// identical to the heap-ordered sequential ones (asserted by tests).
//
// Trade-off versus TipDecomposition: each round recomputes counts in
// O(wedges of the surviving subgraph) but rounds are internally
// parallel; the heap version does minimal incremental work but is
// inherently sequential. Graphs with few peeling levels (most
// real-world bipartite networks) favor rounds.
//
// All rounds share one output buffer and one core.Arena, so the loop's
// steady state allocates nothing (see TestTipRoundsArenaZeroAlloc).
//
// This is the "recount" engine: simple, internally parallel, and kept
// as the differential-testing oracle for the incremental delta engine
// (TipDecompositionDelta), which does asymptotically less work.
func TipDecompositionRounds(g *graph.Bipartite, side core.Side, threads int) []int64 {
	tip, _ := tipDecompositionRecount(g, side, threads, nil)
	return tip
}

// tipDecompositionRecount is TipDecompositionRounds reporting the
// number of peeling rounds, with an optional stage hook receiving
// per-round "peel.round[i]" timings.
func tipDecompositionRecount(g *graph.Bipartite, side core.Side, threads int, stage stageFunc) ([]int64, int) {
	n := g.NumV1()
	if side == core.SideV2 {
		n = g.NumV2()
	}
	active := make([]bool, n)
	remaining := 0
	for i := range active {
		active[i] = true
		remaining++
	}
	tip := make([]int64, n)
	var level int64
	rounds := 0

	arena := core.NewArena()
	s := make([]int64, n)
	for remaining > 0 {
		rt := stageNow(stage)
		rounds++
		core.VertexButterfliesMaskedInto(context.Background(), s, g, side, active, threads, arena)
		// Find the minimum count among active vertices.
		min := int64(-1)
		for u, a := range active {
			if a && (min < 0 || s[u] < min) {
				min = s[u]
			}
		}
		if min > level {
			level = min
		}
		// Peel everything at or below the level.
		for u, a := range active {
			if a && s[u] <= level {
				tip[u] = level
				active[u] = false
				remaining--
			}
		}
		emitRound(stage, rounds-1, rt)
	}
	return tip, rounds
}

// KTipParallel is KTipSubgraph with the per-iteration butterfly vector
// computed by `threads` workers. Results are identical to KTipSubgraph.
// Like TipDecompositionRounds this is the recount engine, kept as the
// oracle for KTipDelta.
func KTipParallel(g *graph.Bipartite, k int64, side core.Side, threads int) *graph.Bipartite {
	sub, _, _ := kTipRecount(context.Background(), g, k, side, threads, nil)
	return sub
}

// kTipRecount is KTipParallel reporting the number of fixpoint rounds,
// with an optional stage hook and cooperative cancellation: ctx
// reaches every round's recount, which stops at its next checkpoint.
func kTipRecount(ctx context.Context, g *graph.Bipartite, k int64, side core.Side, threads int, stage stageFunc) (*graph.Bipartite, int, error) {
	n := g.NumV1()
	if side == core.SideV2 {
		n = g.NumV2()
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	arena := core.NewArena()
	s := make([]int64, n)
	rounds := 0
	for {
		rt := stageNow(stage)
		rounds++
		if err := core.VertexButterfliesMaskedInto(ctx, s, g, side, active, threads, arena); err != nil {
			return nil, 0, err
		}
		changed := false
		for u := range active {
			if active[u] && s[u] < k {
				active[u] = false
				changed = true
			}
		}
		emitRound(stage, rounds-1, rt)
		if !changed {
			break
		}
	}
	return maskSide(g, side, active), rounds, nil
}
