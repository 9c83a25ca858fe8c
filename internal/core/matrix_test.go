package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

// adversarialGraphs are the shapes the thread matrix runs on: star
// hubs (maximal skew, zero butterflies), long paths (no wedges close),
// bicliques (every wedge closes), chained bicliques, empty and
// singleton sides, dense full-row hubs over a sparse tail, plus seeded
// power-law graphs.
func adversarialGraphs() map[string]*graph.Bipartite {
	return map[string]*graph.Bipartite{
		"star":          gen.Star(40),
		"star-T":        gen.Star(40).Transposed(),
		"path":          gen.Cycle(30).FilterEdges(func(u, v int32) bool { return !(u == 29 && v == 0) }),
		"cycle":         gen.Cycle(24),
		"biclique":      gen.CompleteBipartite(8, 8),
		"bicliques":     gen.BicliqueChain(4, 5, 6),
		"empty":         gen.CompleteBipartite(0, 0),
		"singleton-v1":  gen.CompleteBipartite(1, 12),
		"singleton-v2":  gen.CompleteBipartite(12, 1),
		"edgeless":      graph.FromEdges(6, 7, nil),
		"powerlaw":      gen.PowerLawBipartite(90, 70, 700, 0.8, 0.8, 11),
		"powerlaw-wide": gen.PowerLawBipartite(40, 300, 900, 0.9, 0.5, 7),
		"dense-hub":     denseHubGraph(256, 256, 24, 4, 5),
	}
}

// TestHubThreadMatrix is the differential matrix of the counting core:
// sequential and parallel execution × a member of each family must
// produce the identical exact count on every adversarial (hub-heavy or
// degenerate) shape. Run under -race in CI, which also exercises the
// parallel kernels' sharing discipline.
func TestHubThreadMatrix(t *testing.T) {
	threads := []int{1, 4}
	for name, g := range adversarialGraphs() {
		want := countSeq(g, AutoInvariant(g), nil, nil)
		for _, inv := range []Invariant{Inv2, Inv5} {
			ref := countSeq(g, inv, nil, nil)
			for _, th := range threads {
				got := CountWith(g, Options{Invariant: inv, Threads: th})
				if got != ref {
					t.Errorf("%s inv=%v threads=%d: got %d, want %d",
						name, inv, th, got, ref)
				}
			}
			if ref != want {
				t.Errorf("%s: invariant %v disagrees with auto member: %d vs %d", name, inv, ref, want)
			}
		}
	}
}

// TestQuickThreadsMatchSpec drives the counting core, sequentially and
// in parallel, through random graphs with the dense specification as
// ground truth (the same oracle the family tests use).
func TestQuickThreadsMatchSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, g := randGraphAndDense(rng, 12)
		inv := Invariants()[rng.Intn(NumInvariants)]
		want := dense.SpecCount(d)
		for _, th := range []int{1, 3} {
			if CountWith(g, Options{Invariant: inv, Threads: th}) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
