package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
)

func TestCounterMatchesCount(t *testing.T) {
	c := NewCounter(0) // deliberately undersized; must grow
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		_, g := randGraphAndDense(rng, 14)
		for _, inv := range Invariants() {
			if got, want := c.Count(g, inv), Count(g, inv); got != want {
				t.Fatalf("trial %d %v: %d, want %d", trial, inv, got, want)
			}
		}
	}
}

func TestCounterZeroValueUsable(t *testing.T) {
	var c Counter
	g := gen.CompleteBipartite(3, 3)
	if c.CountAuto(g) != 9 {
		t.Fatal("zero-value Counter wrong")
	}
}

func TestCounterReuseLeavesBuffersClean(t *testing.T) {
	c := NewCounter(100)
	g := gen.PowerLawBipartite(80, 60, 300, 0.7, 0.7, 2)
	first := c.CountAuto(g)
	// A second count must see zeroed accumulators.
	if second := c.CountAuto(g); second != first {
		t.Fatalf("reuse changed result: %d vs %d", second, first)
	}
	for i, v := range c.ws.acc {
		if v != 0 {
			t.Fatalf("acc[%d] = %d left dirty", i, v)
		}
	}
}

func TestCounterInvalidInvariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCounter(4).Count(gen.Star(2), Invariant(0))
}

func TestQuickCountSpGEMMParallelMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecCount(d)
		return CountSpGEMMParallel(g, 4) == want && CountSpGEMMParallel(g, 1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCountSpGEMMParallelLarge(t *testing.T) {
	g := gen.PowerLawBipartite(4000, 3000, 20000, 0.7, 0.7, 3)
	want := CountAuto(g)
	if got := CountSpGEMMParallel(g, 6); got != want {
		t.Fatalf("parallel SpGEMM count %d, want %d", got, want)
	}
}

func BenchmarkCounterReuseVsFresh(b *testing.B) {
	g := gen.PowerLawBipartite(2000, 1500, 8000, 0.7, 0.7, 4)
	inv := AutoInvariant(g)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBench = Count(g, inv)
		}
	})
	b.Run("reused", func(b *testing.B) {
		c := NewCounter(g.NumV2())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBench = c.Count(g, inv)
		}
	})
}

var sinkBench int64

func TestQuickVertexButterfliesSpGEMMMatchesSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 12)
		for _, side := range []Side{SideV1, SideV2} {
			want := VertexButterflies(g, side)
			got := VertexButterfliesSpGEMM(g, side)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexButterfliesSpGEMMMedium(t *testing.T) {
	g := gen.PowerLawBipartite(500, 400, 3000, 0.7, 0.7, 18)
	want := VertexButterflies(g, SideV1)
	got := VertexButterfliesSpGEMM(g, SideV1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: %d, want %d", i, got[i], want[i])
		}
	}
}

func TestQuickCountBlockedAlgebraicMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		want := dense.SpecCount(d)
		for _, panel := range []int{1, 2, 3, 7, 64} {
			if CountBlockedAlgebraic(g, panel) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCountBlockedAlgebraicMedium(t *testing.T) {
	g := gen.PowerLawBipartite(600, 500, 4000, 0.7, 0.7, 19)
	want := CountAuto(g)
	for _, panel := range []int{16, 128} {
		if got := CountBlockedAlgebraic(g, panel); got != want {
			t.Fatalf("panel=%d: %d, want %d", panel, got, want)
		}
	}
}

func TestCountBlockedAlgebraicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CountBlockedAlgebraic(gen.Star(2), 0)
}
