package butterfly

import (
	"context"

	"butterfly/internal/core"
)

// WedgePartial is one entry of a V1-centered wedge partial map: Count
// wedges (v—u—w) whose center u lies in the graph and whose endpoints
// V < W lie in V2. Partials are the unit of distributed butterfly
// counting: partition a graph's V1 side into edge-disjoint subgraphs,
// export each partition's partials, and MergeWedgePartials reduces
// them to the exact global count — the cross-node generalisation of
// the hub-split partial-pair reduction used by the parallel engine.
type WedgePartial struct {
	V, W  int32
	Count int64
}

// WedgePartials returns the graph's V1-centered wedge frequency map
// over V2 endpoint pairs, sorted by (V, W). For a graph that is one
// partition of a larger graph (same dimensions, subset of V1 rows
// populated), the result is exactly that partition's contribution to
// the global wedge multiset.
func (g *Graph) WedgePartials() []WedgePartial {
	ps, _ := g.WedgePartialsContext(context.Background())
	return ps
}

// WedgePartialsContext is WedgePartials with cooperative cancellation:
// a cancelled ctx stops the sweep within a few hundred exposed
// vertices and the call returns ctx.Err().
func (g *Graph) WedgePartialsContext(ctx context.Context) ([]WedgePartial, error) {
	ps, err := core.WedgePartialsContext(ctx, g.g)
	if err != nil {
		return nil, err
	}
	return partialsFromCore(ps), nil
}

func partialsToCore(ps []WedgePartial) []core.PairCount {
	out := make([]core.PairCount, len(ps))
	for i, p := range ps {
		out[i] = core.PairCount{V: p.V, W: p.W, C: p.Count}
	}
	return out
}

func partialsFromCore(ps []core.PairCount) []WedgePartial {
	out := make([]WedgePartial, len(ps))
	for i, p := range ps {
		out[i] = WedgePartial{V: p.V, W: p.W, Count: p.C}
	}
	return out
}

// WedgePartialDelta returns the signed change in the wedge partial map
// between two versions of a graph whose mutations touched only the
// given V1 centers: ApplyWedgePartialDelta(before.WedgePartials(), Δ)
// reconstructs after.WedgePartials() exactly. Cost is proportional to
// the touched centers' wedge counts in both versions, not the graph —
// the incremental-maintenance kernel behind `/v1/internal/partial?since=`.
// Entries may carry negative counts (wedges destroyed by deletions).
func WedgePartialDelta(before, after *Graph, centers []int) []WedgePartial {
	d := core.DiffPartials(
		core.WedgePartialsOf(after.g, centers),
		core.WedgePartialsOf(before.g, centers),
	)
	return partialsFromCore(d)
}

// SumWedgePartialDeltas composes sorted signed deltas by summing
// counts per pair key, dropping pairs that cancel to zero — used to
// collapse a run of consecutive per-version deltas into one frame.
func SumWedgePartialDeltas(deltas ...[]WedgePartial) []WedgePartial {
	cs := make([][]core.PairCount, len(deltas))
	for i, d := range deltas {
		cs[i] = partialsToCore(d)
	}
	return partialsFromCore(core.SumPartialDeltas(cs...))
}

// ApplyWedgePartialDelta merges a signed delta into a base partial
// map, dropping pairs that reach zero. It errors if any pair would go
// negative — the base does not match the delta's starting version —
// so callers (the cluster router) can fall back to a full re-fetch
// instead of propagating a corrupt merge.
func ApplyWedgePartialDelta(base, delta []WedgePartial) ([]WedgePartial, error) {
	merged, err := core.ApplyPartialDelta(partialsToCore(base), partialsToCore(delta))
	if err != nil {
		return nil, err
	}
	return partialsFromCore(merged), nil
}

// MergeWedgePartials reduces sorted wedge partials — typically one per
// V1 partition of a graph — to the exact butterfly count of the union:
// a k-way merge over pair keys followed by Σ C(β, 2). With a single
// argument it computes that graph's own count.
func MergeWedgePartials(parts ...[]WedgePartial) int64 {
	key := func(p WedgePartial) uint64 { return uint64(p.V)<<32 | uint64(uint32(p.W)) }
	idx := make([]int, len(parts))
	var total int64
	for {
		var minKey uint64
		live := false
		for p, part := range parts {
			if idx[p] < len(part) {
				if k := key(part[idx[p]]); !live || k < minKey {
					minKey, live = k, true
				}
			}
		}
		if !live {
			return total
		}
		var beta int64
		for p, part := range parts {
			if idx[p] < len(part) && key(part[idx[p]]) == minKey {
				beta += part[idx[p]].Count
				idx[p]++
			}
		}
		total += beta * (beta - 1) / 2
	}
}
