package peel

import (
	"context"

	"butterfly/internal/core"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// KWingParallel is KWingSubgraph with each iteration's support matrix
// computed by `threads` workers; the fixpoint is identical. The rounds
// share one value buffer and one core.Arena, so each iteration's
// support sweep reuses the previous round's scratch. This is the
// recount engine, kept as the oracle for KWingDelta.
func KWingParallel(g *graph.Bipartite, k int64, threads int) *graph.Bipartite {
	sub, _, _ := kWingRecount(context.Background(), g, k, threads, nil)
	return sub
}

// kWingRecount is KWingParallel reporting the number of fixpoint
// rounds, with an optional stage hook and cooperative cancellation:
// ctx reaches every round's support sweep, which stops at its next
// checkpoint.
func kWingRecount(ctx context.Context, g *graph.Bipartite, k int64, threads int, stage stageFunc) (*graph.Bipartite, int, error) {
	arena := core.NewArena()
	valsBuf := make([]int64, g.NumEdges())
	cur := g
	rounds := 0
	for {
		rt := stageNow(stage)
		rounds++
		sw, err := core.EdgeSupportParallelInto(ctx, valsBuf, cur, threads, arena)
		if err != nil {
			return nil, 0, err
		}
		kept := sparse.PatternOf(sparse.Select(sw, func(_ int, _ int32, v int64) bool {
			return v >= k
		}))
		if kept.NNZ() == cur.NumEdges() {
			emitRound(stage, rounds-1, rt)
			return cur, rounds, nil
		}
		next, err := graph.FromCSR(kept)
		if err != nil {
			panic("peel: internal error rebuilding k-wing graph: " + err.Error())
		}
		cur = next
		emitRound(stage, rounds-1, rt)
	}
}

// WingDecompositionRounds computes the same wing numbers as
// WingDecomposition with round-synchronous peeling: every round
// removes all edges whose current support is at or below the running
// level, then recomputes supports of the surviving subgraph with
// `threads` workers. Confluence makes the result identical to the
// heap-ordered sequential peeling (asserted by tests).
//
// Edge identities are flat indices into g.Adj(); removed edges keep
// their original ids across rounds via an explicit id map, so the
// output lines up with WingDecomposition's.
//
// This is the recount engine — every round rebuilds the surviving
// subgraph and recomputes all supports — kept as the oracle for the
// incremental WingDecompositionDelta.
func WingDecompositionRounds(g *graph.Bipartite, threads int) []int64 {
	wing, _ := wingDecompositionRecount(g, threads, nil)
	return wing
}

// wingDecompositionRecount is WingDecompositionRounds reporting the
// number of peeling rounds, with an optional stage hook.
func wingDecompositionRecount(g *graph.Bipartite, threads int, stage stageFunc) ([]int64, int) {
	orig := g.Adj()
	wing := make([]int64, orig.NNZ())

	cur := g
	// ids[k] = original flat id of the k-th surviving edge of cur.
	ids := make([]int64, orig.NNZ())
	for i := range ids {
		ids[i] = int64(i)
	}

	arena := core.NewArena()
	valsBuf := make([]int64, orig.NNZ())

	var level int64
	rounds := 0
	for cur.NumEdges() > 0 {
		rt := stageNow(stage)
		rounds++
		sup, _ := core.EdgeSupportParallelInto(context.Background(), valsBuf, cur, threads, arena)
		min := int64(-1)
		for _, v := range sup.Val {
			if min < 0 || v < min {
				min = v
			}
		}
		if min > level {
			level = min
		}

		adj := cur.Adj()
		keep := make([]bool, adj.NNZ())
		nextIDs := ids[:0:0]
		removedAny := false
		for e, v := range sup.Val {
			if v <= level {
				wing[ids[e]] = level
				removedAny = true
				continue
			}
			keep[e] = true
			nextIDs = append(nextIDs, ids[e])
		}
		if !removedAny {
			// Cannot happen: min ≤ level always peels at least one edge.
			panic("peel: wing rounds made no progress")
		}
		kept := sparse.PatternOf(sparse.Select(adj, func(i int, j int32, _ int64) bool {
			e, ok := edgeID(adj, i, j)
			return ok && keep[e]
		}))
		next, err := graph.FromCSR(kept)
		if err != nil {
			panic("peel: internal error rebuilding graph: " + err.Error())
		}
		cur = next
		ids = nextIDs
		emitRound(stage, rounds-1, rt)
	}
	return wing, rounds
}
