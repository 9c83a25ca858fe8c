package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/gen"
)

// Present/RemoveEdge must keep both compacted directions consistent:
// every surviving edge stays findable in its exposed and transpose
// rows, every removed edge disappears from both.
func TestWingPeelStateRemoveEdge(t *testing.T) {
	g := gen.PowerLawBipartite(40, 30, 220, 0.7, 0.7, 3)
	adj := g.Adj()
	nnz := int(adj.NNZ())
	s := NewWingPeelState(g)
	rng := rand.New(rand.NewSource(7))
	removed := make([]bool, nnz)
	for _, e := range rng.Perm(nnz)[:nnz/2] {
		if !s.Present(int64(e)) {
			t.Fatalf("edge %d missing before removal", e)
		}
		s.RemoveEdge(int64(e))
		removed[e] = true
	}
	for e := 0; e < nnz; e++ {
		if s.Present(int64(e)) == removed[e] {
			t.Fatalf("edge %d: Present=%v, removed=%v", e, s.Present(int64(e)), removed[e])
		}
	}
	// Each exposed row must hold exactly the surviving edges of that row,
	// with matching columns.
	for u := 0; u < adj.R; u++ {
		want := map[int64]int32{}
		base := adj.Ptr[u]
		for k, v := range adj.Row(u) {
			if e := base + int64(k); !removed[e] {
				want[e] = v
			}
		}
		cols, eids := s.row(int32(u))
		if len(eids) != len(want) {
			t.Fatalf("row %d: %d entries, want %d", u, len(eids), len(want))
		}
		for i, e := range eids {
			if v, ok := want[e]; !ok || v != cols[i] {
				t.Fatalf("row %d: unexpected entry (e=%d col=%d)", u, e, cols[i])
			}
		}
	}
	// Transpose rows likewise: every surviving edge appears under its
	// secondary endpoint with the right exposed endpoint.
	var tentries int
	for v := 0; v < g.NumV2(); v++ {
		cols, eids := s.trow(int32(v))
		tentries += len(eids)
		for i, e := range eids {
			if removed[e] {
				t.Fatalf("trow %d: removed edge %d still present", v, e)
			}
			if s.edgeV[e] != int32(v) || s.edgeU[e] != cols[i] {
				t.Fatalf("trow %d: edge %d endpoints (%d,%d) vs entry col %d",
					v, e, s.edgeU[e], s.edgeV[e], cols[i])
			}
		}
	}
	if tentries != nnz-nnz/2 {
		t.Fatalf("transpose holds %d edges, want %d", tentries, nnz-nnz/2)
	}
}

// WingStateDeltaBatch must compute exactly the difference between the
// edge supports of the pre-batch subgraph and the post-batch subgraph, for any sequence
// of earlier removals and any batch drawn from the survivors.
func TestQuickWingStateDeltaBatchExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		nnz := int(g.NumEdges())
		if nnz == 0 {
			return true
		}
		s := NewWingPeelState(g)
		alive := make([]bool, nnz)   // true = survives the batch
		inBatch := make([]bool, nnz) // true = peeled by this batch
		var batch []int64
		for e := 0; e < nnz; e++ {
			switch rng.Intn(4) {
			case 0: // dead from an earlier round: already compacted away
				s.RemoveEdge(int64(e))
			case 1:
				inBatch[e] = true
				batch = append(batch, int64(e))
			default:
				alive[e] = true
			}
		}
		if len(batch) == 0 {
			return true
		}
		sup := make([]int64, nnz)
		supportInto(sup, g, func(e int) bool { return alive[e] || inBatch[e] })
		want := make([]int64, nnz)
		supportInto(want, g, func(e int) bool { return alive[e] })

		dirty := make([]int32, nnz)
		var touched []int64
		for _, threads := range []int{1, 3} {
			got := append([]int64(nil), sup...)
			touched = touched[:0]
			WingStateDeltaBatch(context.Background(), s, batch, alive, inBatch, got, dirty, &touched, threads, nil)
			for _, f := range touched {
				dirty[f] = 0
			}
			for e := 0; e < nnz; e++ {
				if alive[e] && got[e] != want[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A warm wing-state round allocates nothing on the sequential path —
// the same per-round guarantee as TipDeltaBatch, which is what
// lets the delta engine's total work track the butterflies destroyed.
func TestWingStateDeltaSteadyStateZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(500, 400, 3000, 0.7, 0.7, 12)
	nnz := int(g.NumEdges())
	s := NewWingPeelState(g)
	alive := make([]bool, nnz)
	inBatch := make([]bool, nnz)
	var batch []int64
	for e := 0; e < nnz; e++ {
		if e%9 == 0 {
			inBatch[e] = true
			batch = append(batch, int64(e))
		} else {
			alive[e] = true
		}
	}
	sup := make([]int64, nnz)
	EdgeSupportParallelInto(context.Background(), sup, g, 1, nil)
	dirty := make([]int32, nnz)
	touched := make([]int64, 0, nnz)
	arena := NewArena()

	// Warm the arena workspace and the touched capacity.
	WingStateDeltaBatch(context.Background(), s, batch, alive, inBatch, sup, dirty, &touched, 1, arena)
	for _, f := range touched {
		dirty[f] = 0
	}
	allocs := testing.AllocsPerRun(20, func() {
		touched = touched[:0]
		WingStateDeltaBatch(context.Background(), s, batch, alive, inBatch, sup, dirty, &touched, 1, arena)
		for _, f := range touched {
			dirty[f] = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("warm wing-state round allocated %.1f objects/op, want 0", allocs)
	}
}
