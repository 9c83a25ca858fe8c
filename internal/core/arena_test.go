package core

import (
	"testing"

	"butterfly/internal/gen"
)

func TestArenaNilIsUsable(t *testing.T) {
	var a *Arena
	ws := a.get(10)
	if len(ws.acc) != 10 {
		t.Fatalf("nil arena workspace acc len %d", len(ws.acc))
	}
	a.put(ws) // must not panic
	if a.Size() != 0 {
		t.Fatal("nil arena reports nonzero size")
	}
}

func TestArenaRecyclesAndGrows(t *testing.T) {
	a := NewArena()
	ws := a.get(8)
	a.put(ws)
	if a.Size() != 1 {
		t.Fatalf("size %d after one put", a.Size())
	}
	ws2 := a.get(4)
	if ws2 != ws {
		t.Fatal("arena did not recycle the pooled workspace")
	}
	if len(ws2.acc) < 4 {
		t.Fatal("recycled workspace too small")
	}
	a.put(ws2)
	ws3 := a.get(100) // must grow
	if len(ws3.acc) < 100 {
		t.Fatalf("grown workspace acc len %d", len(ws3.acc))
	}
	for i, v := range ws3.acc {
		if v != 0 {
			t.Fatalf("grown acc[%d] = %d, want 0", i, v)
		}
	}
	a.put(ws3)
	a.put(nil) // no-op
	if a.Size() != 1 {
		t.Fatalf("size %d, want 1", a.Size())
	}
}

// The peeling hot loop — repeated masked per-vertex counts into a
// caller-owned buffer with a warm arena — must allocate nothing.
func TestTipRoundsArenaZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(800, 600, 4000, 0.7, 0.7, 8)
	n := g.NumV1()
	active := make([]bool, n)
	for i := range active {
		active[i] = i%5 != 0
	}
	s := make([]int64, n)
	arena := NewArena()
	// Warm the arena and the touched-list capacity.
	VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)

	allocs := testing.AllocsPerRun(20, func() {
		VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)
	})
	if allocs != 0 {
		t.Fatalf("warm masked count allocated %.1f objects/op, want 0", allocs)
	}
}

// Same claim for the per-edge support sweep used by wing peeling.
func TestWingRoundsArenaZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(500, 400, 3000, 0.7, 0.7, 12)
	vals := make([]int64, g.NumEdges())
	arena := NewArena()
	EdgeSupportParallelInto(vals, g, 1, arena)

	allocs := testing.AllocsPerRun(20, func() {
		EdgeSupportParallelInto(vals, g, 1, arena)
	})
	// One CSR header per call is unavoidable (the result wrapper); the
	// point is that the O(V + E) scratch is gone.
	if allocs > 1 {
		t.Fatalf("warm support sweep allocated %.1f objects/op, want ≤ 1", allocs)
	}
}

// Sequential counting through CountWith with a warm arena is also
// allocation-free — the repeated-count pattern of cmd/bfbench.
func TestCountWithArenaZeroAlloc(t *testing.T) {
	g := gen.PowerLawBipartite(600, 500, 3000, 0.7, 0.7, 15)
	arena := NewArena()
	opts := Options{Invariant: Inv2, Arena: arena}
	want := CountWith(g, opts)

	allocs := testing.AllocsPerRun(20, func() {
		if CountWith(g, opts) != want {
			t.Fatal("arena count mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm sequential count allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkTipRoundsArena contrasts the arena-backed peel-round kernel
// with the allocating one; the arena path reports 0 allocs/op.
func BenchmarkTipRoundsArena(b *testing.B) {
	g := gen.PowerLawBipartite(2000, 1500, 10000, 0.7, 0.7, 4)
	n := g.NumV1()
	active := make([]bool, n)
	for i := range active {
		active[i] = i%7 != 0
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := VertexButterfliesMasked(g, SideV1, active)
			sinkBench = s[0]
		}
	})
	b.Run("arena", func(b *testing.B) {
		s := make([]int64, n)
		arena := NewArena()
		VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			VertexButterfliesMaskedInto(s, g, SideV1, active, 1, arena)
			sinkBench = s[0]
		}
	})
}
