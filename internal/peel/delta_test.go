package peel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"butterfly/internal/core"
	"butterfly/internal/gen"
)

// The incremental delta engine must produce the same tip numbers as the
// heap-ordered sequential decomposition and the recount engine
// (confluence) on random graphs, on both sides, sequential and
// parallel. This is the tentpole differential test; it also runs under
// -race in CI, which exercises the atomic paths of the delta kernels.
func TestQuickTipDeltaMatchesSequentialAndRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		for _, side := range []core.Side{core.SideV1, core.SideV2} {
			want := TipDecomposition(g, side)
			oracle := TipDecompositionRounds(g, side, 2)
			for i := range want {
				if oracle[i] != want[i] {
					return false
				}
			}
			for _, threads := range []int{1, 3} {
				got, _ := TipDecompositionDelta(g, side, threads)
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTipDeltaMediumGraph(t *testing.T) {
	g := gen.PowerLawBipartite(300, 250, 2000, 0.7, 0.7, 3)
	want := TipDecomposition(g, core.SideV1)
	got, rounds := TipDecompositionDelta(g, core.SideV1, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vertex %d: delta %d, sequential %d", i, got[i], want[i])
		}
	}
	if rounds < 1 {
		t.Fatalf("expected at least one peeled batch, got %d", rounds)
	}
}

func TestTipDeltaEmptyAndButterflyFree(t *testing.T) {
	for _, tip := range mustTip(TipDecompositionDelta(gen.Star(5), core.SideV2, 2)) {
		if tip != 0 {
			t.Fatal("star leaves should have tip 0")
		}
	}
	empty, rounds := TipDecompositionDelta(gen.CompleteBipartite(0, 0), core.SideV1, 2)
	if len(empty) != 0 || rounds != 0 {
		t.Fatal("empty graph should give empty tips in zero rounds")
	}
}

func mustTip(tip []int64, _ int) []int64 { return tip }

func TestQuickWingDeltaMatchesSequentialAndRecount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 8)
		want := WingDecomposition(g)
		oracle := WingDecompositionRounds(g, 2)
		for i := range want {
			if oracle[i] != want[i] {
				return false
			}
		}
		for _, threads := range []int{1, 3} {
			got, _ := WingDecompositionDelta(g, threads)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWingDeltaMediumGraph(t *testing.T) {
	g := gen.PowerLawBipartite(120, 100, 900, 0.7, 0.7, 13)
	want := WingDecomposition(g)
	got, rounds := WingDecompositionDelta(g, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: delta %d, heap %d", i, got[i], want[i])
		}
	}
	if rounds < 1 {
		t.Fatalf("expected at least one peeled batch, got %d", rounds)
	}
}

func TestQuickKTipDeltaMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 9)
		for k := int64(0); k <= 3; k++ {
			for _, side := range []core.Side{core.SideV1, core.SideV2} {
				sub, _ := KTipDelta(g, k, side, 3)
				if !sub.Equal(KTipSubgraph(g, k, side)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKWingDeltaMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, g := randGraphAndDense(rng, 8)
		for k := int64(0); k <= 3; k++ {
			sub, _ := KWingDelta(g, k, 3)
			if !sub.Equal(KWingSubgraph(g, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The engine dispatch layer must agree across engines and report the
// engine-appropriate round counts.
func TestEngineDispatchAgrees(t *testing.T) {
	g := gen.PowerLawBipartite(150, 120, 1100, 0.7, 0.7, 29)
	for _, side := range []core.Side{core.SideV1, core.SideV2} {
		want := TipDecomposition(g, side)
		for _, eng := range []Engine{EngineDelta, EngineRecount} {
			tip, st := TipNumbersWith(g, side, Options{Engine: eng, Threads: 2})
			for i := range want {
				if tip[i] != want[i] {
					t.Fatalf("engine %v side %v vertex %d: got %d want %d", eng, side, i, tip[i], want[i])
				}
			}
			if st.Rounds < 1 {
				t.Fatalf("engine %v: expected positive rounds", eng)
			}
		}
	}
	wantWing := WingDecomposition(g)
	for _, eng := range []Engine{EngineDelta, EngineRecount} {
		wing, st := WingNumbersWith(g, Options{Engine: eng, Threads: 2})
		for i := range wantWing {
			if wing[i] != wantWing[i] {
				t.Fatalf("engine %v edge %d: got %d want %d", eng, i, wing[i], wantWing[i])
			}
		}
		if st.Rounds < 1 {
			t.Fatalf("engine %v: expected positive rounds", eng)
		}
	}
	for _, k := range []int64{0, 1, 2, 5} {
		wantTip := KTipSubgraph(g, k, core.SideV1)
		wantKW := KWingSubgraph(g, k)
		for _, eng := range []Engine{EngineDelta, EngineRecount} {
			sub, _ := KTipWith(g, k, core.SideV1, Options{Engine: eng, Threads: 2})
			if !sub.Equal(wantTip) {
				t.Fatalf("engine %v k=%d: k-tip mismatch", eng, k)
			}
			sub, _ = KWingWith(g, k, Options{Engine: eng, Threads: 2})
			if !sub.Equal(wantKW) {
				t.Fatalf("engine %v k=%d: k-wing mismatch", eng, k)
			}
		}
	}
}

func TestEngineString(t *testing.T) {
	if EngineDelta.String() != "delta" || EngineRecount.String() != "recount" {
		t.Fatalf("engine names: %q %q", EngineDelta, EngineRecount)
	}
}

// bucketQueue unit tests: lazy decrease + batch extraction must drain
// ids in nondecreasing key order with exactly-once extraction, across
// window rebuckets.
func TestBucketQueueDrainsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 500
	keys := make([]int64, n)
	alive := make([]bool, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000)) // forces rebucketing past width 8
		alive[i] = true
	}
	q := newBucketQueue(keys, alive, 8)
	seen := make([]bool, n)
	var lastLevel int64 = -1
	total := 0
	var batch []int64
	for {
		var level int64
		var ok bool
		batch, level, ok = q.nextBatch(batch[:0], alive)
		if !ok {
			break
		}
		if level < lastLevel {
			t.Fatalf("level regressed: %d after %d", level, lastLevel)
		}
		lastLevel = level
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("id %d extracted twice", id)
			}
			seen[id] = true
			if keys[id] > level {
				t.Fatalf("id %d extracted at level %d with key %d", id, level, keys[id])
			}
			total++
		}
	}
	if total != n {
		t.Fatalf("extracted %d of %d ids", total, n)
	}
}

// Keys decreased between batches must be honored: an id whose key drops
// to the current level cascades into the same level's sub-rounds.
func TestBucketQueueCascadeWithinLevel(t *testing.T) {
	keys := []int64{0, 5, 9}
	alive := []bool{true, true, true}
	q := newBucketQueue(keys, alive, 4)
	batch, level, ok := q.nextBatch(nil, alive)
	if !ok || level != 0 || len(batch) != 1 || batch[0] != 0 {
		t.Fatalf("first batch: %v level %d ok %v", batch, level, ok)
	}
	// Peeling id 0 drops id 2's key below the cursor; it must clamp.
	keys[2] = 0
	q.update(2)
	batch, level, ok = q.nextBatch(batch[:0], alive)
	if !ok || level != 0 || len(batch) != 1 || batch[0] != 2 {
		t.Fatalf("cascade batch: %v level %d ok %v", batch, level, ok)
	}
	batch, level, ok = q.nextBatch(batch[:0], alive)
	if !ok || level != 5 || len(batch) != 1 || batch[0] != 1 {
		t.Fatalf("final batch: %v level %d ok %v", batch, level, ok)
	}
	if _, _, ok = q.nextBatch(batch[:0], alive); ok {
		t.Fatal("queue should be exhausted")
	}
}

// The delta engines' loops reuse one arena and their scratch slices;
// a full decomposition's allocations amortize to the initial vectors
// and the bucket queue's growth to its high-water mark. Per-round
// scratch allocation (workspace + partner lists + batch each of the
// ~100 rounds of this graph) would run to thousands of allocations;
// the kernel-level zero-alloc guarantee is asserted exactly in
// internal/core's TestTipDeltaSteadyStateZeroAlloc.
func TestTipDeltaFewAllocsWarm(t *testing.T) {
	g := gen.PowerLawBipartite(200, 160, 1400, 0.7, 0.7, 7)
	// Prime any global state.
	TipDecompositionDelta(g, core.SideV1, 1)
	allocs := testing.AllocsPerRun(3, func() {
		TipDecompositionDelta(g, core.SideV1, 1)
	})
	if allocs > 512 {
		t.Fatalf("TipDecompositionDelta allocates %v times per run", allocs)
	}
}

// TestWingDeltaRelayoutAgreement pins the relayout-invariance of the
// wing-delta engine (core/wingstate.go): on the degree-ordered twin
// that the counting core serves scalar counts from, hubs occupy the
// *low* vertex ids — the opposite of natural order. Nothing in the
// engine may depend on where hubs sit, so delta peeling has to agree
// with the recount engine on the relayouted graph exactly as it does
// on the original.
func TestWingDeltaRelayoutAgreement(t *testing.T) {
	orig := gen.PowerLawBipartite(120, 100, 900, 0.7, 0.7, 13)
	g, _, _ := orig.DegreeOrdered()
	want := WingDecompositionRounds(g, 2)
	for _, threads := range []int{1, 4} {
		got, _ := WingDecompositionDelta(g, threads)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d edge %d: delta %d, recount %d", threads, i, got[i], want[i])
			}
		}
	}
	// The wing numbers must also be a relabeling of the original's: the
	// multiset of edge wing numbers is invariant under vertex renumbering.
	a, b := WingDecomposition(orig), WingDecomposition(g)
	var sa, sb int64
	for _, x := range a {
		sa += x
	}
	for _, x := range b {
		sb += x
	}
	if len(a) != len(b) || sa != sb {
		t.Fatalf("wing decomposition changed under relayout: %d edges sum %d vs %d edges sum %d", len(a), sa, len(b), sb)
	}
}

// TestTipDeltaRelayoutAgreement is the tip-side companion: delta
// peeling on the degree-ordered twin agrees with the recount engine for
// both sides and thread counts.
func TestTipDeltaRelayoutAgreement(t *testing.T) {
	orig := gen.PowerLawBipartite(300, 250, 2000, 0.7, 0.7, 3)
	g, _, _ := orig.DegreeOrdered()
	for _, side := range []core.Side{core.SideV1, core.SideV2} {
		want := TipDecompositionRounds(g, side, 2)
		for _, threads := range []int{1, 4} {
			got, _ := TipDecompositionDelta(g, side, threads)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("side=%v threads=%d vertex %d: delta %d, recount %d", side, threads, i, got[i], want[i])
				}
			}
		}
	}
}
