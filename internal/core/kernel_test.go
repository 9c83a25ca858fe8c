package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

var allPolicies = []HubPolicy{HubAuto, HubNever, HubAlways}

func TestHubPolicyString(t *testing.T) {
	cases := map[HubPolicy]string{
		HubAuto: "HubAuto", HubNever: "HubNever", HubAlways: "HubAlways",
		HubPolicy(42): "HubPolicy(?)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if HubPolicy(0) != HubAuto {
		t.Fatal("HubAuto must be the zero value")
	}
}

// The headline exactness claim of the hybrid kernel: the bitset path
// agrees bit-for-bit with the sparse path for every invariant, across
// thresholds forced to 0 (HubAlways) and ∞ (HubNever), and across
// Threads ∈ {1, 2, 4, 8}. Exhaustive over all 512 graphs on 3×3.
func TestHybridKernelExhaustive3x3(t *testing.T) {
	enumerateGraphs(3, 3, func(d *dense.Matrix, g *graph.Bipartite) {
		want := bruteCount(d)
		for _, inv := range Invariants() {
			for _, pol := range allPolicies {
				for _, threads := range []int{1, 2, 4, 8} {
					got := CountWith(g, Options{Invariant: inv, Threads: threads, Hub: pol})
					if got != want {
						t.Fatalf("graph %v %v %v threads=%d: %d, want %d",
							d.Data, inv, pol, threads, got, want)
					}
				}
			}
		}
	})
}

// Property form of the same claim on random graphs large enough to hit
// the bitset fast paths (pre-materialized hub bitsets need ≥ 64
// secondary vertices; the exhaustive test above cannot reach them).
func TestQuickHybridKernelMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 20)
		want := dense.SpecCount(d)
		for _, inv := range Invariants() {
			for _, pol := range allPolicies {
				for _, threads := range []int{1, 2, 4, 8} {
					if CountWith(g, Options{Invariant: inv, Threads: threads, Hub: pol}) != want {
						return false
					}
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
// regime where word-wise AND + popcount dominates the sparse kernel.
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

func TestHybridKernelDenseHubAllPolicies(t *testing.T) {
	g := denseHubGraph(256, 256, 24, 4, 5)
	for _, inv := range Invariants() {
		want := CountWith(g, Options{Invariant: inv, Hub: HubNever})
		for _, pol := range allPolicies {
			for _, threads := range []int{1, 2, 4, 8} {
				got := CountWith(g, Options{Invariant: inv, Threads: threads, Hub: pol})
				if got != want {
					t.Fatalf("%v %v threads=%d: %d, want %d", inv, pol, threads, got, want)
				}
			}
		}
	}
	// Sanity: the graph must actually trigger the auto bitset path.
	exposed, secondary := orient(g, Inv2)
	_, above := Inv2.geometry()
	ks := newKernShared(exposed, secondary, above, HubAuto, nil)
	if !ks.anyBits {
		t.Fatal("dense-hub graph did not trigger the auto bitset path")
	}
	var nHubBits int
	for _, hb := range ks.hubBits {
		if hb != nil {
			nHubBits++
		}
	}
	if nHubBits == 0 {
		t.Fatal("no hub bitsets were materialized")
	}
}

// Forced hub splitting: shrinking the scheduler budgets makes even
// small graphs spill, exercising segment export + reduction (sparse
// hubs) and candidate-range splitting (bitset hubs) under every policy.
func TestQuickForcedSpillExactness(t *testing.T) {
	tun := schedTuning{minWork: 1, spillDiv: 2, chunkDiv: 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 18)
		want := dense.SpecCount(d)
		for _, inv := range Invariants() {
			for _, pol := range allPolicies {
				for _, threads := range []int{2, 4, 8} {
					if countParallelTuned(g, inv, threads, pol, nil, tun, nil) != want {
						return false
					}
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
		for _, pol := range allPolicies {
			for _, threads := range []int{2, 4, 8} {
				if got := countParallelTuned(g, inv, threads, pol, nil, tun, nil); got != want {
					t.Fatalf("%v %v threads=%d: %d, want %d", inv, pol, threads, got, want)
				}
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
			VertexButterfliesMaskedInto(s, g, side, nil, threads, arena)
			for i := range s {
				if s[i] != wantFull[i] {
					t.Fatalf("side %v threads=%d vertex %d: %d, want %d", side, threads, i, s[i], wantFull[i])
				}
			}
			VertexButterfliesMaskedInto(s, g, side, active, threads, arena)
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
		got := EdgeSupportParallelInto(vals, g, threads, arena)
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

// BenchmarkBitsetVsSparseKernel demonstrates the hybrid kernel's win on
// a dense-hub synthetic graph: 64 full-row hubs over 1024 vertices turn
// the inner loop into word-wise AND + popcount.
func BenchmarkBitsetVsSparseKernel(b *testing.B) {
	g := denseHubGraph(1024, 1024, 64, 4, 7)
	inv := Inv2
	arena := NewArena()
	for _, tc := range []struct {
		name string
		pol  HubPolicy
	}{{"sparse", HubNever}, {"auto", HubAuto}, {"bitset", HubAlways}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBench = CountWith(g, Options{Invariant: inv, Hub: tc.pol, Arena: arena})
			}
		})
	}
}
