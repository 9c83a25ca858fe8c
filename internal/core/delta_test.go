package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

// TipDeltaBatch must compute exactly the difference between the masked
// butterfly vectors before and after the batch is removed — for any
// alive mask (earlier rounds) and any batch drawn from it.
func TestQuickTipDeltaBatchExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 10)
		for _, side := range []Side{SideV1, SideV2} {
			n := g.NumV1()
			if side == SideV2 {
				n = g.NumV2()
			}
			if n == 0 {
				continue
			}
			before := make([]bool, n)
			after := make([]bool, n)
			var batch []int32
			for u := range before {
				switch rng.Intn(4) {
				case 0: // dead from an earlier round
				case 1: // peeled by this batch
					before[u] = true
					batch = append(batch, int32(u))
				default: // survivor
					before[u] = true
					after[u] = true
				}
			}
			if len(batch) == 0 {
				continue
			}
			s := VertexButterfliesMasked(g, side, before)
			want := VertexButterfliesMasked(g, side, after)

			dirty := make([]int32, n)
			var touched []int32
			for _, threads := range []int{1, 3} {
				got := append([]int64(nil), s...)
				touched = touched[:0]
				TipDeltaBatch(g, side, batch, after, got, dirty, &touched, threads, nil)
				for _, w := range touched {
					dirty[w] = 0
				}
				for u := range after {
					if after[u] && got[u] != want[u] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// supportInto writes the butterfly support of every kept edge (by the
// keep predicate over original flat ids) into sup at its original id,
// by rebuilding the kept subgraph and mapping positions back.
func supportInto(sup []int64, g *graph.Bipartite, keep func(int) bool) {
	adj := g.Adj()
	b := graph.NewBuilder(adj.R, adj.C)
	var kept []int
	for u := 0; u < adj.R; u++ {
		base := adj.Ptr[u]
		for k, v := range adj.Row(u) {
			e := int(base) + k
			if keep(e) {
				b.AddEdge(u, int(v))
				kept = append(kept, e)
			}
		}
	}
	sub := b.Build()
	vals := make([]int64, sub.NumEdges())
	EdgeSupportParallelInto(vals, sub, 1, nil)
	for i, e := range kept {
		sup[e] = vals[i]
	}
}

// A warm tip-delta round allocates nothing on the sequential path: the
// wedge workspace comes from the arena and the touched list reuses its
// high-water capacity. This is the per-round guarantee the delta
// peeling engine's O(deltas) work bound rests on.
func TestTipDeltaSteadyStateZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(800, 600, 4000, 0.7, 0.7, 8)
	n := g.NumV1()
	alive := make([]bool, n)
	var batch []int32
	for u := range alive {
		if u%7 == 0 {
			batch = append(batch, int32(u))
		} else {
			alive[u] = true
		}
	}
	s := make([]int64, n)
	VertexButterfliesMaskedInto(s, g, SideV1, nil, 1, nil)
	dirty := make([]int32, n)
	touched := make([]int32, 0, n)
	arena := NewArena()
	// Warm the arena workspace and the touched capacity.
	TipDeltaBatch(g, SideV1, batch, alive, s, dirty, &touched, 1, arena)
	for _, w := range touched {
		dirty[w] = 0
	}

	allocs := testing.AllocsPerRun(20, func() {
		touched = touched[:0]
		TipDeltaBatch(g, SideV1, batch, alive, s, dirty, &touched, 1, arena)
		for _, w := range touched {
			dirty[w] = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("warm tip-delta round allocated %.1f objects/op, want 0", allocs)
	}
}

// TransposeEdgeMap must invert the CSR/CSC correspondence exactly.
func TestTransposeEdgeMap(t *testing.T) {
	g := gen.PowerLawBipartite(60, 50, 400, 0.7, 0.7, 5)
	adj, adjT := g.Adj(), g.AdjT()
	tmap := TransposeEdgeMap(g)
	if len(tmap) != int(adj.NNZ()) {
		t.Fatalf("tmap length %d, want %d", len(tmap), adj.NNZ())
	}
	for v := 0; v < adjT.R; v++ {
		base := adjT.Ptr[v]
		for k, u := range adjT.Row(v) {
			e := tmap[base+int64(k)]
			if got := adj.Col[e]; int(got) != v {
				t.Fatalf("tmap[%d]: edge %d has column %d, want %d", base+int64(k), e, got, v)
			}
			if e < adj.Ptr[u] || e >= adj.Ptr[u+1] {
				t.Fatalf("tmap[%d]: edge %d is not in row %d", base+int64(k), e, u)
			}
		}
	}
}
