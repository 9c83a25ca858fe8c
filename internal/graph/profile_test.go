package graph

import (
	"sync"
	"testing"
)

func profGraph(t *testing.T) *Bipartite {
	t.Helper()
	// V1 degrees: 4, 1, 1; V2 degrees: 2, 2, 1, 1.
	return FromEdges(3, 4, []Edge{
		{0, 0}, {0, 1}, {0, 2}, {0, 3},
		{1, 0}, {2, 1},
	})
}

func TestProfileValues(t *testing.T) {
	g := profGraph(t)
	p := g.Profile()
	if p.NumEdges != 6 {
		t.Fatalf("edge count wrong: %+v", p)
	}
	// max/mean: V1 4/(6/3), V2 2/(6/4).
	if p.SkewV1 != 2 || p.SkewV2 != 2/1.5 {
		t.Fatalf("skew wrong: %+v", p)
	}
}

func TestProfileEmptyGraph(t *testing.T) {
	for _, g := range []*Bipartite{FromEdges(0, 0, nil), FromEdges(3, 4, nil)} {
		if p := g.Profile(); p.NumEdges != 0 || p.SkewV1 != 0 || p.SkewV2 != 0 {
			t.Fatalf("empty profile: %+v", p)
		}
	}
}

// TestProfileConcurrent hammers the lazy cache from many goroutines;
// run under -race in CI.
func TestProfileConcurrent(t *testing.T) {
	g := profGraph(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if g.Profile().SkewV1 != 2 {
					t.Error("profile corrupted")
					return
				}
				h, _, _ := g.DegreeOrdered()
				if h.NumEdges() != g.NumEdges() {
					t.Error("relayout lost edges")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDegreeOrderedStructure(t *testing.T) {
	g := profGraph(t)
	if g.HasDegreeOrdered() {
		t.Fatal("twin reported built before first use")
	}
	h, p1, p2 := g.DegreeOrdered()
	if !g.HasDegreeOrdered() {
		t.Fatal("twin not reported built after DegreeOrdered")
	}
	// Descending degree per side.
	for u := 1; u < h.NumV1(); u++ {
		if h.DegreeV1(u) > h.DegreeV1(u-1) {
			t.Fatalf("V1 not degree-descending at %d", u)
		}
	}
	for v := 1; v < h.NumV2(); v++ {
		if h.DegreeV2(v) > h.DegreeV2(v-1) {
			t.Fatalf("V2 not degree-descending at %d", v)
		}
	}
	// Permutations translate back: edge (pu, pv) of g iff (u, v) of h.
	for u := 0; u < h.NumV1(); u++ {
		for _, v := range h.NeighborsOfV1(u) {
			if !g.HasEdge(int(p1[u]), int(p2[v])) {
				t.Fatalf("edge (%d,%d) of twin missing in original", u, v)
			}
		}
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	// Cached: same twin object on repeat calls.
	h2, _, _ := g.DegreeOrdered()
	if h2 != h {
		t.Fatal("DegreeOrdered not cached")
	}
	// The original graph is untouched (public ids preserved).
	if !g.HasEdge(0, 3) || g.DegreeV1(0) != 4 {
		t.Fatal("original graph mutated by relayout")
	}
}
