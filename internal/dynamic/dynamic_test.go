package dynamic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"butterfly/internal/core"
	"butterfly/internal/dense"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

func TestEmptyCounter(t *testing.T) {
	c := New(3, 4)
	if c.Count() != 0 || c.NumEdges() != 0 || c.NumV1() != 3 || c.NumV2() != 4 {
		t.Fatal("empty counter wrong")
	}
	if c.HasEdge(0, 0) || c.HasEdge(-1, 0) || c.HasEdge(0, 9) {
		t.Fatal("phantom edges")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(-1, 2)
}

func TestInsertBuildsButterfly(t *testing.T) {
	c := New(2, 2)
	for _, e := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
		added, delta := c.InsertEdge(e[0], e[1])
		if !added || delta != 0 {
			t.Fatalf("edge %v: added=%v delta=%d", e, added, delta)
		}
	}
	added, delta := c.InsertEdge(1, 1) // closes K(2,2)
	if !added || delta != 1 {
		t.Fatalf("closing edge: added=%v delta=%d", added, delta)
	}
	if c.Count() != 1 {
		t.Fatalf("Count = %d", c.Count())
	}
}

func TestDuplicateInsertNoop(t *testing.T) {
	c := New(2, 2)
	c.InsertEdge(0, 0)
	added, delta := c.InsertEdge(0, 0)
	if added || delta != 0 || c.NumEdges() != 1 {
		t.Fatal("duplicate insert not a no-op")
	}
}

func TestDeleteMissingNoop(t *testing.T) {
	c := New(2, 2)
	removed, delta := c.DeleteEdge(1, 1)
	if removed || delta != 0 {
		t.Fatal("missing delete not a no-op")
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	c := FromGraph(gen.CompleteBipartite(3, 3))
	if c.Count() != 9 {
		t.Fatalf("K(3,3) count = %d, want 9", c.Count())
	}
	removed, delta := c.DeleteEdge(0, 0)
	if !removed || delta != 4 {
		// edge (0,0) in K(3,3) supports (3-1)(3-1) = 4 butterflies
		t.Fatalf("delete: removed=%v delta=%d", removed, delta)
	}
	if c.Count() != 5 {
		t.Fatalf("count after delete = %d, want 5", c.Count())
	}
	added, delta := c.InsertEdge(0, 0)
	if !added || delta != 4 || c.Count() != 9 {
		t.Fatalf("reinsert: delta=%d count=%d", delta, c.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := New(2, 2)
	for name, fn := range map[string]func(){
		"insert": func() { c.InsertEdge(2, 0) },
		"delete": func() { c.DeleteEdge(0, -1) },
		"vertex": func() { c.VertexDelta(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// The core property: after any random mutation sequence, the
// maintained count equals a fresh static recount of the snapshot.
func TestQuickCounterMatchesStaticRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(8)+2, rng.Intn(8)+2
		c := New(m, n)
		for step := 0; step < 60; step++ {
			u, v := rng.Intn(m), rng.Intn(n)
			if rng.Intn(3) == 0 {
				c.DeleteEdge(u, v)
			} else {
				c.InsertEdge(u, v)
			}
		}
		return c.Count() == core.CountAuto(c.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Deltas must telescope: Σ insert deltas − Σ delete deltas == count.
func TestQuickDeltasTelescope(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(7)+2, rng.Intn(7)+2
		c := New(m, n)
		var running int64
		for step := 0; step < 50; step++ {
			u, v := rng.Intn(m), rng.Intn(n)
			if rng.Intn(3) == 0 {
				_, d := c.DeleteEdge(u, v)
				running -= d
			} else {
				_, d := c.InsertEdge(u, v)
				running += d
			}
		}
		return running == c.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFromGraphMatchesStatic(t *testing.T) {
	g := gen.PowerLawBipartite(80, 60, 400, 0.7, 0.7, 9)
	c := FromGraph(g)
	if c.Count() != core.CountAuto(g) {
		t.Fatalf("FromGraph count %d, static %d", c.Count(), core.CountAuto(g))
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatal("edge count mismatch")
	}
	if !c.Snapshot().Equal(g) {
		t.Fatal("snapshot differs from source")
	}
}

// VertexDelta agrees with the static per-vertex vector.
func TestQuickVertexDeltaMatchesStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng.Intn(8)+2, rng.Intn(8)+2, 0.5, seed)
		c := FromGraph(g)
		want := core.VertexButterflies(g, core.SideV1)
		for u := 0; u < g.NumV1(); u++ {
			if c.VertexDelta(u) != want[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	g := gen.PowerLawBipartite(5000, 4000, 30000, 0.7, 0.7, 11)
	c := FromGraph(g)
	rng := rand.New(rand.NewSource(12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := rng.Intn(5000), rng.Intn(4000)
		if i%2 == 0 {
			c.InsertEdge(u, v)
		} else {
			c.DeleteEdge(u, v)
		}
	}
}

func TestQuickVertexDeltaV2MatchesStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng.Intn(8)+2, rng.Intn(8)+2, 0.5, seed)
		c := FromGraph(g)
		want := core.VertexButterflies(g, core.SideV2)
		for v := 0; v < g.NumV2(); v++ {
			if c.VertexDeltaV2(v) != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexDeltaV2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2, 2).VertexDeltaV2(2)
}

// Growing one seeded row must reallocate it, never spill into the
// next row of the shared seed array.
func TestRowIsolation(t *testing.T) {
	g := gen.CompleteBipartite(3, 4)
	c := FromGraph(g)
	c.DeleteEdge(0, 1) // row 0 now has spare capacity in the seed array
	c.InsertEdge(0, 1)
	c.DeleteEdge(0, 3)
	c.InsertEdge(0, 3)
	c.DeleteEdge(1, 0)
	c.InsertEdge(1, 0)
	for u := 0; u < g.NumV1(); u++ {
		if !slices.Equal(c.adj[u], g.NeighborsOfV1(u)) {
			t.Fatalf("row %d = %v, want %v", u, c.adj[u], g.NeighborsOfV1(u))
		}
	}
	// A full row grows past its capacity: the successor stays intact.
	h := graph.FromEdges(3, 6, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 2}, {U: 1, V: 1}, {U: 1, V: 3}, {U: 2, V: 4}})
	c = FromGraph(h)
	c.InsertEdge(0, 5)
	c.InsertEdge(0, 1)
	if !slices.Equal(c.adj[0], []int32{0, 1, 2, 5}) {
		t.Fatalf("row 0 = %v", c.adj[0])
	}
	if !slices.Equal(c.adj[1], []int32{1, 3}) || !slices.Equal(c.adj[2], []int32{4}) {
		t.Fatalf("rows after row 0 grew: %v %v", c.adj[1], c.adj[2])
	}
	for v := 0; v < h.NumV2(); v++ {
		want := h.NeighborsOfV2(v)
		if v == 1 || v == 5 {
			want = append(slices.Clone(want), 0)
			slices.Sort(want)
		}
		if !slices.Equal(c.adjT[v], want) {
			t.Fatalf("column %d = %v, want %v", v, c.adjT[v], want)
		}
	}
}

// A snapshot shares no memory with the rows: later inserts and deletes
// leave it equal to a freshly built graph of the edges it held.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, n = 30, 25
	c := FromGraph(gen.ErdosRenyi(m, n, 0.3, 6))
	for round := 0; round < 5; round++ {
		snap := c.Snapshot()
		b := graph.NewBuilder(m, n)
		for u := 0; u < m; u++ {
			for v := 0; v < n; v++ {
				if c.HasEdge(u, v) {
					b.AddEdge(u, v)
				}
			}
		}
		want := b.Build()
		for step := 0; step < 200; step++ {
			u, v := rng.Intn(m), rng.Intn(n)
			if rng.Intn(2) == 0 {
				c.DeleteEdge(u, v)
			} else {
				c.InsertEdge(u, v)
			}
		}
		if !snap.Equal(want) || !snap.Transposed().Equal(want.Transposed()) {
			t.Fatalf("round %d: snapshot changed under later mutations", round)
		}
		if err := snap.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// FromGraph copies: mutating the counter leaves the seed graph intact.
func TestFromGraphNoAliasing(t *testing.T) {
	g := gen.PowerLawBipartite(60, 50, 300, 0.7, 0.7, 3)
	adj, adjT := g.Adj().Clone(), g.AdjT().Clone()
	want := core.CountAuto(g)
	c := FromGraph(g)
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 2000; step++ {
		u, v := rng.Intn(60), rng.Intn(50)
		if step%2 == 0 {
			c.DeleteEdge(u, v)
		} else {
			c.InsertEdge(u, v)
		}
	}
	if !g.Adj().Equal(adj) || !g.AdjT().Equal(adjT) {
		t.Fatal("mutating the counter changed its seed graph")
	}
	if core.CountAuto(g) != want {
		t.Fatal("seed graph count changed")
	}
}

// The galloping intersection agrees with the linear merge on a hub
// row against short rows, including misses past either end.
func TestGallopMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	hub := make([]int32, 0, 1500)
	for x := int32(0); len(hub) < 1500; x += int32(rng.Intn(4) + 1) {
		hub = append(hub, x)
	}
	last := hub[len(hub)-1]
	shorts := [][]int32{
		{},
		{hub[0], hub[700], last},
		{-5, hub[3], last + 1},
		{last + 1, last + 2, last + 3},
		{hub[1499]},
	}
	for i := 0; i < 200; i++ {
		s := []int32{int32(rng.Intn(int(last) + 10)), int32(rng.Intn(int(last) + 10)), int32(rng.Intn(int(last) + 10))}
		slices.Sort(s)
		shorts = append(shorts, slices.Compact(s))
	}
	for _, s := range shorts {
		want := mergeIntersect(s, hub)
		if got := gallopIntersect(s, hub); got != want {
			t.Fatalf("gallop(%v, hub) = %d, merge = %d", s, got, want)
		}
		if got := intersectSize(hub, s); got != want {
			t.Fatalf("intersectSize(hub, %v) = %d, merge = %d", s, got, want)
		}
	}
}

// Seeded differential: a counter seeded by the static kernel stays
// equal to a static recount of its snapshot after every update.
func TestSeededCounterMatchesRecount(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n := rng.Intn(15)+3, rng.Intn(15)+3
		c := FromGraph(gen.PowerLawBipartite(m, n, int64(3*(m+n)), 0.6, 0.6, seed))
		for step := 0; step < 150; step++ {
			u, v := rng.Intn(m), rng.Intn(n)
			if rng.Intn(2) == 0 {
				c.DeleteEdge(u, v)
			} else {
				c.InsertEdge(u, v)
			}
			snap := c.Snapshot()
			if want := core.CountAuto(snap); c.Count() != want {
				t.Fatalf("seed %d step %d: count %d, recount %d", seed, step, c.Count(), want)
			}
			if c.NumEdges() != snap.NumEdges() {
				t.Fatalf("seed %d step %d: edges %d, snapshot %d", seed, step, c.NumEdges(), snap.NumEdges())
			}
		}
	}
}

// FuzzCounterOps decodes bytes into an insert/delete sequence on a
// graph of at most 12×12 and checks the maintained count against the
// dense specification oracle after every op, then checks a counter
// re-seeded from the final snapshot.
func FuzzCounterOps(f *testing.F) {
	f.Add([]byte{2, 2, 0, 0, 0, 1, 1, 0, 1, 1})
	f.Add([]byte{})
	f.Add([]byte{11, 11, 0x80, 3, 0x85, 7, 4, 4, 0x84, 4, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, n := int(data[0])%12+1, int(data[1])%12+1
		c := New(m, n)
		a := dense.New(m, n)
		for i := 2; i+1 < len(data); i += 2 {
			u, v := int(data[i]&0x7f)%m, int(data[i+1])%n
			if data[i]&0x80 != 0 {
				removed, _ := c.DeleteEdge(u, v)
				if removed != (a.At(u, v) == 1) {
					t.Fatalf("delete (%d,%d): removed=%v", u, v, removed)
				}
				a.Set(u, v, 0)
			} else {
				added, _ := c.InsertEdge(u, v)
				if added != (a.At(u, v) == 0) {
					t.Fatalf("insert (%d,%d): added=%v", u, v, added)
				}
				a.Set(u, v, 1)
			}
			if want := dense.SpecCount(a); c.Count() != want {
				t.Fatalf("op %d (%d,%d): count %d, oracle %d", i/2, u, v, c.Count(), want)
			}
		}
		want := dense.SpecCount(a)
		if got := FromGraph(c.Snapshot()).Count(); got != want {
			t.Fatalf("re-seeded count %d, oracle %d", got, want)
		}
	})
}
