package core

import (
	"context"
	"slices"
	"sync/atomic"

	"butterfly/internal/graph"
)

// PairCount is one entry of a V1-centered wedge partial: C wedges
// (v—u—w) with center u in this graph's V1 and endpoints V < W in V2.
// It is the cross-node analogue of the hub-split partial-pair
// accumulator (kernel.go sweep.par): C(β, 2) is not
// additive across partitions of the center side, so partitions export
// integer wedge counts and a reduction phase merges them before the
// butterfly formula is applied.
type PairCount struct {
	V, W int32
	C    int64
}

// WedgePartials returns g's V1-centered wedge frequency map over V2
// endpoint pairs, sorted by (V, W). Merging the partials of an
// edge-disjoint V1 partition of a graph reconstructs the exact wedge
// multiset of the whole graph, because each wedge's center lives in
// exactly one partition:
//
//	butterflies(g) = Σ_{(v,w)} C(Σ_parts β_vw, 2)
//
// It is the count sweep of invariant 2 with a different finish:
// exposing V2, each vertex v gathers β_vw = |N(v) ∩ N(w)| for its
// partners w > v, and the touched partners are sorted and emitted
// instead of folded into Σ C(β, 2). Cost is the same O(wedges) as a
// sequential count plus the output.
func WedgePartials(g *graph.Bipartite) []PairCount {
	ps, _ := WedgePartialsContext(context.Background(), g)
	return ps
}

// WedgePartialsContext is WedgePartials with cooperative
// cancellation: a cancelled ctx stops the sweep at its next checkpoint
// (every stopStride+1 exposed vertices) and the call returns ctx.Err().
func WedgePartialsContext(ctx context.Context, g *graph.Bipartite) ([]PairCount, error) {
	var wedges int64
	for u := 0; u < g.NumV1(); u++ {
		d := int64(g.DegreeV1(u))
		wedges += d * (d - 1) / 2
	}
	sw := sweep{exposed: g.AdjT(), secondary: g.Adj(), above: true, target: toPairs,
		pairs: make([]PairCount, 0, wedges/2+1)}
	if err := runContext(ctx, func(stop *atomic.Bool) { sw.seq(nil, stop) }); err != nil {
		return nil, err
	}
	return sw.pairs, nil
}

// emitPairs is the partials' finish: the touched partners w of exposed
// vertex v, sorted, appended to out as (v, w, β_vw).
func emitPairs(out []PairCount, ws *workspace, v int) []PairCount {
	slices.Sort(ws.touched)
	for _, w := range ws.touched {
		out = append(out, PairCount{V: int32(v), W: w, C: int64(ws.acc[w])})
		ws.acc[w] = 0
	}
	ws.touched = ws.touched[:0]
	return out
}

// WedgePartialsOf returns the wedge partial restricted to the given
// V1 centers: only wedges (v—u—w) with u ∈ centers contribute.
// Duplicate and out-of-range centers are ignored. This is the delta
// kernel's workhorse — a mutation batch touches a handful of centers,
// and the partial-map change is exactly the difference of the touched
// centers' contributions before and after, O(Σ_{u∈centers} C(deg u, 2))
// instead of O(wedges).
func WedgePartialsOf(g *graph.Bipartite, centers []int) []PairCount {
	seen := make(map[int]struct{}, len(centers))
	var wedges int64
	for _, u := range centers {
		if u < 0 || u >= g.NumV1() {
			continue
		}
		if _, dup := seen[u]; dup {
			continue
		}
		seen[u] = struct{}{}
		d := int64(g.DegreeV1(u))
		wedges += d * (d - 1) / 2
	}
	keys := make([]uint64, 0, wedges)
	for u := range seen {
		row := g.NeighborsOfV1(u)
		for i, v := range row {
			for _, w := range row[i+1:] {
				keys = append(keys, uint64(v)<<32|uint64(uint32(w)))
			}
		}
	}
	slices.Sort(keys)
	out := make([]PairCount, 0, len(keys)/2+1)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		out = append(out, PairCount{
			V: int32(keys[i] >> 32),
			W: int32(uint32(keys[i])),
			C: int64(j - i),
		})
		i = j
	}
	return out
}

func pairKey(p PairCount) uint64 { return uint64(p.V)<<32 | uint64(uint32(p.W)) }

// SumPartialDeltas merges sorted signed partial deltas by summing
// counts per pair key and dropping entries that cancel to zero. It is
// used both to compose consecutive per-version deltas (shard-side log
// compaction for a `?since=` reply spanning several versions) and to
// compute a diff: SumPartialDeltas(after, negate(before)).
func SumPartialDeltas(parts ...[]PairCount) []PairCount {
	idx := make([]int, len(parts))
	var out []PairCount
	for {
		minKey := uint64(1)<<63 | uint64(1)<<62
		live := false
		for p, part := range parts {
			if idx[p] < len(part) {
				if k := pairKey(part[idx[p]]); !live || k < minKey {
					minKey, live = k, true
				}
			}
		}
		if !live {
			return out
		}
		var c int64
		for p, part := range parts {
			if idx[p] < len(part) && pairKey(part[idx[p]]) == minKey {
				c += part[idx[p]].C
				idx[p]++
			}
		}
		if c != 0 {
			out = append(out, PairCount{V: int32(minKey >> 32), W: int32(uint32(minKey)), C: c})
		}
	}
}

// DiffPartials returns the signed delta after − before over pair keys:
// applying the result to `before` with ApplyPartialDelta reconstructs
// `after` exactly. Both inputs must be sorted by (V, W); entries with
// equal counts cancel out of the result.
func DiffPartials(after, before []PairCount) []PairCount {
	neg := make([]PairCount, len(before))
	for i, p := range before {
		neg[i] = PairCount{V: p.V, W: p.W, C: -p.C}
	}
	return SumPartialDeltas(after, neg)
}

// ApplyPartialDelta merges a signed delta into a (non-negative) base
// partial, dropping pairs whose count reaches zero. A pair driven
// negative means the delta does not belong to this base version — the
// caller's pinned copy is stale or corrupt — and is reported as an
// error rather than silently clamped.
func ApplyPartialDelta(base, delta []PairCount) ([]PairCount, error) {
	merged := SumPartialDeltas(base, delta)
	for _, p := range merged {
		if p.C < 0 {
			return nil, &NegativePartialError{V: p.V, W: p.W, C: p.C}
		}
	}
	return merged, nil
}

// NegativePartialError reports a delta application that drove a wedge
// count below zero — the signal that the base partial and the delta
// frame disagree about the starting version.
type NegativePartialError struct {
	V, W int32
	C    int64
}

func (e *NegativePartialError) Error() string {
	return "core: partial delta drove pair below zero"
}

// CountFromPartials merges sorted wedge partials (a k-way merge over
// the pair keys) and applies Σ C(β, 2) — the distributed reduction
// that turns per-partition exports into the exact global butterfly
// count. Passing a single partial computes the count of that graph
// alone.
func CountFromPartials(parts ...[]PairCount) int64 {
	idx := make([]int, len(parts))
	var total int64
	for {
		// Find the minimum live key across all partials.
		minKey := uint64(1)<<63 | uint64(1)<<62 // sentinel above any packed pair
		live := false
		for p, part := range parts {
			if idx[p] < len(part) {
				k := uint64(part[idx[p]].V)<<32 | uint64(uint32(part[idx[p]].W))
				if !live || k < minKey {
					minKey, live = k, true
				}
			}
		}
		if !live {
			return total
		}
		var beta int64
		for p, part := range parts {
			if idx[p] < len(part) {
				e := part[idx[p]]
				if uint64(e.V)<<32|uint64(uint32(e.W)) == minKey {
					beta += e.C
					idx[p]++
				}
			}
		}
		total += beta * (beta - 1) / 2
	}
}
