package butterfly

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// k22 is the single-butterfly graph.
func k22(t testing.TB) *Graph {
	t.Helper()
	g, err := FromEdges(2, 2, [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randGraph(t testing.TB, seed int64, m, n int, p float64) *Graph {
	t.Helper()
	g, err := GenerateErdosRenyi(m, n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderHappyPath(t *testing.T) {
	g := k22(t)
	if g.NumV1() != 2 || g.NumV2() != 2 || g.NumEdges() != 4 {
		t.Fatalf("shape: %s", g)
	}
	if g.Count() != 1 {
		t.Fatalf("Count = %d, want 1", g.Count())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(-1, 2).Build(); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := NewBuilder(2, 2).AddEdge(2, 0).Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// Errors stick: later valid edges don't clear them.
	if _, err := NewBuilder(2, 2).AddEdge(5, 5).AddEdge(0, 0).Build(); err == nil {
		t.Fatal("error did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on error")
		}
	}()
	NewBuilder(1, 1).AddEdge(9, 9).MustBuild()
}

func TestAccessors(t *testing.T) {
	g, err := FromEdges(3, 2, [][2]int{{0, 0}, {0, 1}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) {
		t.Fatal("out-of-range HasEdge should be false")
	}
	if g.DegreeV1(0) != 2 || g.DegreeV2(1) != 2 {
		t.Fatal("degrees wrong")
	}
	if n := g.NeighborsV1(0); len(n) != 2 || n[0] != 0 || n[1] != 1 {
		t.Fatalf("NeighborsV1 = %v", n)
	}
	if n := g.NeighborsV2(1); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Fatalf("NeighborsV2 = %v", n)
	}
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges len %d", len(es))
	}
	back, err := FromEdges(3, 2, es)
	if err != nil || !back.Equal(g) {
		t.Fatal("edge round trip failed")
	}
	if g.Density() != 0.5 {
		t.Fatalf("Density = %f", g.Density())
	}
	if !strings.Contains(g.String(), "|E|=3") {
		t.Fatalf("String = %q", g.String())
	}
	tr := g.Transposed()
	if tr.NumV1() != 2 || !tr.HasEdge(1, 2) {
		t.Fatal("Transposed wrong")
	}
}

func TestStats(t *testing.T) {
	g := k22(t)
	s := g.Stats()
	if s.NumEdges != 4 || s.WedgesV1 != 2 || s.WedgesV2 != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDegV1 != 2 || s.AvgDegV2 != 2 {
		t.Fatalf("stats degrees = %+v", s)
	}
}

func TestCountAllInvariantsAgree(t *testing.T) {
	g := randGraph(t, 3, 60, 40, 0.15)
	want := g.Count()
	for inv := Invariant1; inv <= Invariant8; inv++ {
		got, err := g.CountInvariant(inv)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: %d, want %d", inv, got, want)
		}
	}
	if got, err := g.CountWith(CountOptions{}); err != nil || got != want {
		t.Fatalf("auto CountWith: %d, %v", got, err)
	}
}

func TestCountParallelAndVariants(t *testing.T) {
	g := randGraph(t, 4, 100, 80, 0.1)
	want := g.Count()
	if got := g.CountParallel(4); got != want {
		t.Fatalf("parallel: %d, want %d", got, want)
	}
	if got := g.CountParallel(0); got != want {
		t.Fatalf("parallel GOMAXPROCS: %d, want %d", got, want)
	}
	got, err := g.CountWith(CountOptions{Invariant: Invariant5, BlockSize: 32})
	if err != nil || got != want {
		t.Fatalf("blocked: %d, %v", got, err)
	}
	got, err = g.CountWith(CountOptions{Order: OrderDegreeDesc, Threads: 2})
	if err != nil || got != want {
		t.Fatalf("ordered parallel: %d, %v", got, err)
	}
}

func TestCountWithErrors(t *testing.T) {
	g := k22(t)
	if _, err := g.CountWith(CountOptions{Invariant: Invariant(42)}); err == nil {
		t.Fatal("invalid invariant accepted")
	}
	if _, err := g.CountWith(CountOptions{BlockSize: -2}); err == nil {
		t.Fatal("negative block size accepted")
	}
	if _, err := g.CountWith(CountOptions{Order: Order(9)}); err == nil {
		t.Fatal("invalid order accepted")
	}
	var nilG *Graph
	if _, err := nilG.CountWith(CountOptions{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestInvariantStrings(t *testing.T) {
	if InvariantAuto.String() != "auto" || Invariant3.String() != "Inv3" {
		t.Fatal("Invariant.String wrong")
	}
	if Invariant(77).String() != "Invariant(77)" {
		t.Fatal("invalid Invariant.String wrong")
	}
	if !Invariant8.Valid() || Invariant(9).Valid() {
		t.Fatal("Valid wrong")
	}
	if V1.String() != "V1" || V2.String() != "V2" {
		t.Fatal("Side.String wrong")
	}
}

func TestVertexButterfliesAndEdgeSupports(t *testing.T) {
	g := randGraph(t, 5, 40, 30, 0.2)
	total := g.Count()

	for _, side := range []Side{V1, V2} {
		s, err := g.VertexButterflies(side)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, v := range s {
			sum += v
		}
		if sum != 2*total {
			t.Errorf("side %v: Σ = %d, want %d", side, sum, 2*total)
		}
	}
	if _, err := g.VertexButterflies(Side(5)); err == nil {
		t.Fatal("invalid side accepted")
	}

	var supSum int64
	sups := g.EdgeSupports()
	if int64(len(sups)) != g.NumEdges() {
		t.Fatalf("EdgeSupports len %d, want %d", len(sups), g.NumEdges())
	}
	for _, e := range sups {
		supSum += e.Count
	}
	if supSum != 4*total {
		t.Fatalf("Σ supports = %d, want %d", supSum, 4*total)
	}
}

func TestWedgesAndClustering(t *testing.T) {
	g := k22(t)
	w1, w2 := g.Wedges()
	if w1 != 2 || w2 != 2 {
		t.Fatalf("Wedges = %d, %d", w1, w2)
	}
	if cc := g.ClusteringCoefficient(); cc != 1 {
		t.Fatalf("cc = %f", cc)
	}
}

func TestButterfliesEnumeration(t *testing.T) {
	g, err := GenerateComplete(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []Butterfly
	g.Butterflies(func(b Butterfly) bool {
		got = append(got, b)
		return true
	})
	if int64(len(got)) != g.Count() {
		t.Fatalf("enumerated %d, count %d", len(got), g.Count())
	}
	for _, b := range got {
		for _, e := range [][2]int{{b.U1, b.W1}, {b.U1, b.W2}, {b.U2, b.W1}, {b.U2, b.W2}} {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("enumerated non-butterfly %+v", b)
			}
		}
	}
	// Early stop.
	n := 0
	g.Butterflies(func(Butterfly) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestEstimateCount(t *testing.T) {
	g, err := GenerateComplete(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(g.Count())
	for _, strat := range []EstimateStrategy{SampleVertices, SampleEdges} {
		est, err := g.EstimateCount(EstimateOptions{Strategy: strat, Samples: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if est != exact {
			t.Errorf("strategy %d on uniform graph: %f, want %f", strat, est, exact)
		}
	}
	if _, err := g.EstimateCount(EstimateOptions{Samples: 0}); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := g.EstimateCount(EstimateOptions{Strategy: EstimateStrategy(7), Samples: 1}); err == nil {
		t.Fatal("invalid strategy accepted")
	}
}

func TestVerify(t *testing.T) {
	if err := randGraph(t, 6, 50, 40, 0.15).Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestKONECTRoundTrip(t *testing.T) {
	g := randGraph(t, 7, 20, 20, 0.3)
	var buf bytes.Buffer
	if err := g.WriteKONECT(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadKONECT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() || back.Count() != g.Count() {
		t.Fatal("KONECT round trip changed the graph")
	}
	if _, err := ReadKONECT(strings.NewReader("bogus line\n")); err == nil {
		t.Fatal("malformed KONECT accepted")
	}
	if _, err := ReadKONECTFile("/does/not/exist"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestKONECTFileRoundTrip(t *testing.T) {
	g := k22(t)
	path := t.TempDir() + "/out.k22"
	if err := g.WriteKONECTFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadKONECTFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("file round trip differs")
	}
}

func TestGenerators(t *testing.T) {
	if _, err := GenerateErdosRenyi(10, 10, 1.5, 1); err == nil {
		t.Fatal("bad p accepted")
	}
	if _, err := GenerateErdosRenyi(-1, 10, 0.5, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := GenerateGnm(3, 3, 10, 1); err == nil {
		t.Fatal("excess edges accepted")
	}
	if _, err := GenerateGnm(-3, 3, 1, 1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := GeneratePowerLaw(0, 3, 1, 0.5, 0.5, 1); err == nil {
		t.Fatal("zero side accepted")
	}
	if _, err := GeneratePowerLaw(3, 3, -1, 0.5, 0.5, 1); err == nil {
		t.Fatal("negative edges accepted")
	}
	if _, err := GenerateComplete(-1, 1); err == nil {
		t.Fatal("negative complete accepted")
	}

	gnm, err := GenerateGnm(20, 20, 50, 2)
	if err != nil || gnm.NumEdges() != 50 {
		t.Fatalf("Gnm: %v", err)
	}
	pl, err := GeneratePowerLaw(50, 50, 200, 0.7, 0.7, 2)
	if err != nil || pl.NumEdges() != 200 {
		t.Fatalf("PowerLaw: %v", err)
	}
	k, err := GenerateComplete(4, 4)
	if err != nil || k.Count() != 36 {
		t.Fatalf("Complete: %v", err)
	}
}

func TestPaperDatasets(t *testing.T) {
	names := PaperDatasets()
	if len(names) != 5 {
		t.Fatalf("%d datasets", len(names))
	}
	g, err := GeneratePaperDataset("github", 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV1() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty scaled dataset")
	}
	if _, err := GeneratePaperDataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := GeneratePaperDataset("nope", 10); err == nil {
		t.Fatal("unknown scaled dataset accepted")
	}
}

func TestPeelingAPI(t *testing.T) {
	g, err := GenerateComplete(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := g.VertexButterflies(V1)
	if err != nil {
		t.Fatal(err)
	}
	tip, err := g.KTip(s[0], V1)
	if err != nil {
		t.Fatal(err)
	}
	if !tip.Equal(g) {
		t.Fatal("s-tip of complete graph should keep everything")
	}
	tipLA, err := g.KTipLookAhead(s[0], V1)
	if err != nil || !tipLA.Equal(tip) {
		t.Fatal("look-ahead k-tip differs")
	}
	empty, err := g.KTip(s[0]+1, V1)
	if err != nil || empty.NumEdges() != 0 {
		t.Fatal("(s+1)-tip should be empty")
	}

	sup := g.EdgeSupports()[0].Count
	wing, err := g.KWing(sup)
	if err != nil || !wing.Equal(g) {
		t.Fatal("s-wing should keep everything")
	}
	gone, err := g.KWing(sup + 1)
	if err != nil || gone.NumEdges() != 0 {
		t.Fatal("(s+1)-wing should be empty")
	}

	tips, err := g.TipNumbers(V1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range tips {
		if tn != s[0] {
			t.Fatalf("tip number %d, want %d", tn, s[0])
		}
	}
	wings := g.WingNumbers()
	if int64(len(wings)) != g.NumEdges() {
		t.Fatalf("WingNumbers len %d", len(wings))
	}
	for _, w := range wings {
		if w.Count != sup {
			t.Fatalf("wing number %d, want %d", w.Count, sup)
		}
	}
}

func TestPeelingAPIErrors(t *testing.T) {
	g := k22(t)
	if _, err := g.KTip(-1, V1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := g.KTip(0, Side(9)); err == nil {
		t.Fatal("bad side accepted")
	}
	if _, err := g.KTipLookAhead(-1, V1); err == nil {
		t.Fatal("negative k accepted (look-ahead)")
	}
	if _, err := g.KTipLookAhead(0, Side(9)); err == nil {
		t.Fatal("bad side accepted (look-ahead)")
	}
	if _, err := g.KWing(-3); err == nil {
		t.Fatal("negative k accepted (wing)")
	}
	if _, err := g.TipNumbers(Side(9)); err == nil {
		t.Fatal("bad side accepted (tip numbers)")
	}
}

// Public-API property test: enumeration length always equals Count.
func TestQuickEnumerationMatchesCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := GenerateErdosRenyi(rng.Intn(10)+2, rng.Intn(10)+2, 0.5, seed)
		if err != nil {
			return false
		}
		var n int64
		g.Butterflies(func(Butterfly) bool { n++; return true })
		return n == g.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKTipParallelAndRounds(t *testing.T) {
	g := randGraph(t, 21, 40, 35, 0.25)
	for _, k := range []int64{0, 1, 3} {
		want, err := g.KTip(k, V1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.KTipParallel(k, V1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("k=%d: parallel k-tip differs", k)
		}
		gotAuto, err := g.KTipParallel(k, V1, 0)
		if err != nil || !gotAuto.Equal(want) {
			t.Fatalf("k=%d: GOMAXPROCS k-tip differs (%v)", k, err)
		}
	}

	want, err := g.TipNumbers(V1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.TipNumbersRounds(V1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tip number %d: rounds %d, heap %d", i, got[i], want[i])
		}
	}
	if _, err := g.KTipParallel(-1, V1, 2); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := g.KTipParallel(1, Side(7), 2); err == nil {
		t.Fatal("bad side accepted")
	}
	if _, err := g.TipNumbersRounds(Side(7), 2); err == nil {
		t.Fatal("bad side accepted (rounds)")
	}
}

func TestVerifyDerivationAPI(t *testing.T) {
	g := randGraph(t, 41, 8, 9, 0.5)
	if err := g.VerifyDerivation(); err != nil {
		t.Fatal(err)
	}
	big, err := GenerateGnm(300, 300, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.VerifyDerivation(); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestDerivationTraceAPI(t *testing.T) {
	g := randGraph(t, 42, 7, 6, 0.5)
	want := g.Count()
	for inv := Invariant1; inv <= Invariant8; inv++ {
		trace, err := g.DerivationTrace(inv)
		if err != nil {
			t.Fatal(err)
		}
		if trace[0] != 0 {
			t.Fatalf("%v: trace starts at %d", inv, trace[0])
		}
		if trace[len(trace)-1] != want {
			t.Fatalf("%v: trace ends at %d, want %d", inv, trace[len(trace)-1], want)
		}
		// Invariant values are monotone non-decreasing: exposing more
		// vertices never uncounts butterflies.
		for i := 1; i < len(trace); i++ {
			if trace[i] < trace[i-1] {
				t.Fatalf("%v: trace decreases at %d", inv, i)
			}
		}
	}
	if _, err := g.DerivationTrace(InvariantAuto); err == nil {
		t.Fatal("auto invariant accepted for trace")
	}
	big, err := GenerateGnm(300, 300, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.DerivationTrace(Invariant1); err == nil {
		t.Fatal("oversized graph accepted")
	}
}

func TestDensestByButterfliesAPI(t *testing.T) {
	g, err := GenerateComplete(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.DensestByButterflies(V1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices != 4 || res.Butterflies != 36 {
		t.Fatalf("result %+v", res)
	}
	sub, err := g.InducedSubgraph(res.Keep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Count() != res.Butterflies {
		t.Fatal("Keep mask does not reproduce reported count")
	}
	if _, err := g.DensestByButterflies(Side(9)); err == nil {
		t.Fatal("bad side accepted")
	}
}

// Graph is immutable after construction: concurrent analyses on the
// same Graph must be safe. Run with -race (CI does).
func TestConcurrentReadersSafe(t *testing.T) {
	g := randGraph(t, 71, 300, 250, 0.05)
	want := g.Count()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				if got := g.CountParallel(2); got != want {
					errs <- fmt.Errorf("parallel count %d, want %d", got, want)
				}
			case 1:
				if _, err := g.VertexButterflies(V1); err != nil {
					errs <- err
				}
			case 2:
				if _, err := g.KTip(1, V1); err != nil {
					errs <- err
				}
			case 3:
				g.EdgeSupports()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestGenerateSBM(t *testing.T) {
	g, err := GenerateSBM([]int{10, 10}, []int{10, 10}, 0.8, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV1() != 20 || g.NumV2() != 20 {
		t.Fatal("SBM sizes wrong")
	}
	// Planted structure should be significant against the null model.
	sig, err := g.ButterflySignificance(SignificanceOptions{Samples: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sig.ZScore < 2 {
		t.Fatalf("SBM z-score %.1f too low", sig.ZScore)
	}
	if _, err := GenerateSBM([]int{2}, []int{2}, 2, 0, 1); err == nil {
		t.Fatal("bad pIn accepted")
	}
	if _, err := GenerateSBM([]int{-1}, []int{2}, 0.5, 0, 1); err == nil {
		t.Fatal("negative block accepted")
	}
}

func TestNumInvariantsMatchesCore(t *testing.T) {
	if NumInvariants != int(Invariant8) {
		t.Fatalf("NumInvariants = %d, want %d", NumInvariants, int(Invariant8))
	}
}

// TestCountWithThreads: sequential and parallel family counts return
// the automatic count.
func TestCountWithThreads(t *testing.T) {
	g := randGraph(t, 4, 100, 80, 0.1)
	want := g.Count()
	for _, threads := range []int{1, 3} {
		got, err := g.CountWith(CountOptions{Threads: threads})
		if err != nil || got != want {
			t.Fatalf("threads=%d: %d, %v (want %d)", threads, got, err, want)
		}
	}
}

// skewedGraph is large and hub-skewed enough for the automatic
// degree-ordered relayout: V1 vertex 0 is adjacent to all of V2, every
// other V1 vertex to four V2 vertices.
func skewedGraph(t *testing.T) *Graph {
	t.Helper()
	const m, n = 1000, 1000
	var edges [][2]int
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{0, v})
	}
	for u := 1; u < m; u++ {
		for j := 0; j < 4; j++ {
			edges = append(edges, [2]int{u, (u*7 + j*131) % n})
		}
	}
	g, err := FromEdges(m, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCountStageHook pins the stage names CountOptions.Stage documents
// (per-layer benchmark tables key off them): a default count on a
// skewed graph reports the relayout on the first call only, then the
// count, and nothing else.
func TestCountStageHook(t *testing.T) {
	stagesOf := func(g *Graph, opts CountOptions) []string {
		t.Helper()
		var got []string
		opts.Stage = func(stage string, _ time.Duration) { got = append(got, stage) }
		if c, err := g.CountWith(opts); err != nil || c != g.Count() {
			t.Fatalf("%+v: count %d, %v (want %d)", opts, c, err, g.Count())
		}
		return got
	}
	want := func(got []string, stages ...string) {
		t.Helper()
		if !slices.Equal(got, stages) {
			t.Fatalf("stages %q, want %q", got, stages)
		}
	}
	g := skewedGraph(t)
	want(stagesOf(g, CountOptions{}), "core.relayout", "core.count")
	want(stagesOf(g, CountOptions{}), "core.count")
	want(stagesOf(g, CountOptions{Threads: 2}), "core.count")
	// An explicit order replaces the relayout; a baseline names itself.
	want(stagesOf(skewedGraph(t), CountOptions{Order: OrderDegreeDesc}), "core.order", "core.count")
	want(stagesOf(g, CountOptions{Algorithm: AlgorithmWedgeHash}), "core.wedge-hash")
}
