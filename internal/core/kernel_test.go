package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// The headline exactness claim of the sparse kernel: every invariant
// agrees with the brute-force count, sequentially and across Threads ∈
// {1, 2, 4, 8}. Exhaustive over all 512 graphs on 3×3.
func TestKernelExhaustive3x3(t *testing.T) {
	enumerateGraphs(3, 3, func(d *dense.Matrix, g *graph.Bipartite) {
		want := bruteCount(d)
		for _, inv := range Invariants() {
			for _, threads := range []int{1, 2, 4, 8} {
				got := CountWith(g, Options{Invariant: inv, Threads: threads})
				if got != want {
					t.Fatalf("graph %v %v threads=%d: %d, want %d",
						d.Data, inv, threads, got, want)
				}
			}
		}
	})
}

// Property form of the same claim on random graphs larger than the
// exhaustive test above can reach, with the dense specification as
// the oracle.
func TestQuickKernelMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 20)
		want := dense.SpecCount(d)
		for _, inv := range Invariants() {
			for _, threads := range []int{1, 2, 4, 8} {
				if CountWith(g, Options{Invariant: inv, Threads: threads}) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// denseHubGraph builds a bipartite graph with `hubs` V2 vertices
// adjacent to every V1 vertex plus a sparse random tail — the dense-hub
// regime, where a few rows carry most of the wedge work.
func denseHubGraph(n1, n2, hubs, tailDeg int, seed int64) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n1, n2)
	for v := 0; v < hubs; v++ {
		for u := 0; u < n1; u++ {
			b.AddEdge(u, v)
		}
	}
	for v := hubs; v < n2; v++ {
		for t := 0; t < tailDeg; t++ {
			b.AddEdge(rng.Intn(n1), v)
		}
	}
	return b.Build()
}

// Dense hubs go through the sparse kernel and, in parallel, through
// neighbor-range hub splitting; every invariant and thread count must
// match the dense specification.
func TestKernelDenseHub(t *testing.T) {
	g := denseHubGraph(256, 256, 24, 4, 5)
	want := dense.SpecCount(sparse.ToDense(g.Adj()))
	for _, inv := range Invariants() {
		for _, threads := range []int{1, 2, 4, 8} {
			got := CountWith(g, Options{Invariant: inv, Threads: threads})
			if got != want {
				t.Fatalf("%v threads=%d: %d, want %d", inv, threads, got, want)
			}
		}
	}
	// Sanity: at default tuning the hubs must actually be split.
	exposed, secondary := orient(g, Inv2)
	desc, above := Inv2.geometry()
	s := buildSchedule(workPerExposed(exposed, secondary, above), desc, 4, schedTuning{},
		restrictedSegWork(exposed, secondary, above), exposed.RowDeg)
	if len(s.spills) == 0 {
		t.Fatal("dense-hub graph did not split any hub")
	}
}

// Forced hub splitting: shrinking the scheduler budgets makes even
// small graphs spill, exercising segment export + reduction.
func TestQuickForcedSpillExactness(t *testing.T) {
	tun := schedTuning{minWork: 1, spillDiv: 2, chunkDiv: 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 18)
		want := dense.SpecCount(d)
		for _, inv := range Invariants() {
			for _, threads := range []int{2, 4, 8} {
				if countParallelTuned(g, inv, threads, nil, tun, nil) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForcedSpillPowerLaw(t *testing.T) {
	g := gen.PowerLawBipartite(900, 700, 6000, 0.85, 0.75, 9)
	tun := schedTuning{minWork: 1, spillDiv: 4}
	for _, inv := range Invariants() {
		want := Count(g, inv)
		for _, threads := range []int{2, 4, 8} {
			if got := countParallelTuned(g, inv, threads, nil, tun, nil); got != want {
				t.Fatalf("%v threads=%d: %d, want %d", inv, threads, got, want)
			}
		}
	}
}

// An arena shared across counts — including counts over different
// graphs and orientations — must never change results.
func TestArenaSharedAcrossCounts(t *testing.T) {
	arena := NewArena()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		d, g := randGraphAndDense(rng, 16)
		want := dense.SpecCount(d)
		for _, inv := range Invariants() {
			for _, threads := range []int{1, 4} {
				got := CountWith(g, Options{Invariant: inv, Threads: threads, Arena: arena})
				if got != want {
					t.Fatalf("trial %d %v threads=%d: %d, want %d", trial, inv, threads, got, want)
				}
			}
		}
	}
	if arena.Size() == 0 {
		t.Fatal("arena never pooled a workspace")
	}
}

// The per-vertex kernels must agree across threads, masks and the
// work-weighted schedule (hub splitting included via the power-law
// skew at default tuning on a larger graph).
func TestVertexButterfliesIntoMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PowerLawBipartite(700, 500, 5000, 0.8, 0.7, 13)
	arena := NewArena()
	for _, side := range []Side{SideV1, SideV2} {
		n := g.NumV1()
		if side == SideV2 {
			n = g.NumV2()
		}
		active := make([]bool, n)
		for i := range active {
			active[i] = rng.Intn(4) > 0
		}
		wantFull := VertexButterflies(g, side)
		wantMasked := VertexButterfliesMasked(g, side, active)
		s := make([]int64, n)
		for _, threads := range []int{1, 2, 4, 8} {
			VertexButterfliesMaskedInto(context.Background(), s, g, side, nil, threads, arena)
			for i := range s {
				if s[i] != wantFull[i] {
					t.Fatalf("side %v threads=%d vertex %d: %d, want %d", side, threads, i, s[i], wantFull[i])
				}
			}
			VertexButterfliesMaskedInto(context.Background(), s, g, side, active, threads, arena)
			for i := range s {
				if s[i] != wantMasked[i] {
					t.Fatalf("side %v threads=%d masked vertex %d: %d, want %d", side, threads, i, s[i], wantMasked[i])
				}
			}
		}
	}
}

func TestEdgeSupportParallelIntoMatches(t *testing.T) {
	g := gen.PowerLawBipartite(600, 450, 4000, 0.8, 0.75, 21)
	want := EdgeSupport(g)
	arena := NewArena()
	vals := make([]int64, g.NumEdges())
	for _, threads := range []int{1, 2, 4, 8} {
		got, _ := EdgeSupportParallelInto(context.Background(), vals, g, threads, arena)
		if got.NNZ() != want.NNZ() {
			t.Fatalf("threads=%d: nnz %d, want %d", threads, got.NNZ(), want.NNZ())
		}
		for e := range want.Val {
			if got.Val[e] != want.Val[e] {
				t.Fatalf("threads=%d edge %d: %d, want %d", threads, e, got.Val[e], want.Val[e])
			}
		}
	}
}
