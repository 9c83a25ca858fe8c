package estimate

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/gen"
	"butterfly/internal/graph"
)

// --- Reservoir ---

func streamOf(g *graph.Bipartite) [][2]int {
	edges := g.Edges()
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{int(e.U), int(e.V)}
	}
	return out
}

// TestReservoirExactRegime: a reservoir at least as large as the
// stream holds every edge, so its estimate is the exact count with zero
// error bars — whatever the stream order or seed, and 0 for an empty
// stream.
func TestReservoirExactRegime(t *testing.T) {
	pl := gen.PowerLawBipartite(100, 80, 500, 0.7, 0.7, 3)
	k55 := gen.CompleteBipartite(5, 5)
	reversed := streamOf(k55)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Bipartite
		stream [][2]int
		seed   int64
	}{
		{"powerLaw", pl, streamOf(pl), 1},
		{"k55Forward", k55, streamOf(k55), 1},
		{"k55Reversed", k55, reversed, 2},
		{"empty", gen.CompleteBipartite(0, 0), nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exact := core.CountAuto(tc.g)
			r, err := NewReservoir(tc.g.NumV1(), tc.g.NumV2(), int(tc.g.NumEdges())+10, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range tc.stream {
				if err := r.Add(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			snap := r.Snapshot()
			if !snap.Exact {
				t.Fatalf("reservoir larger than stream should be exact")
			}
			if snap.Estimate != float64(exact) {
				t.Fatalf("exact-regime estimate %g, want %d", snap.Estimate, exact)
			}
			if snap.StdErr != 0 || snap.CI95 != 0 {
				t.Fatalf("exact-regime error bars must be zero, got %g/%g", snap.StdErr, snap.CI95)
			}
			if snap.EdgesSeen != tc.g.NumEdges() || snap.ReservoirSize != int(tc.g.NumEdges()) {
				t.Fatalf("snapshot bookkeeping: seen=%d size=%d want %d", snap.EdgesSeen, snap.ReservoirSize, tc.g.NumEdges())
			}
		})
	}
}

// TestReservoirIncrementalMatchesRecount is the differential test for
// the incremental count: after a long stream with many evictions, the
// maintained count must equal an exact recount of the reservoir
// subgraph.
func TestReservoirIncrementalMatchesRecount(t *testing.T) {
	g := gen.PowerLawBipartite(120, 90, 1500, 0.8, 0.7, 7)
	for _, capacity := range []int{4, 50, 300} {
		r, err := NewReservoir(120, 90, capacity, 42)
		if err != nil {
			t.Fatal(err)
		}
		stream := streamOf(g)
		rng := rand.New(rand.NewSource(9))
		// Include duplicate stream elements to exercise the dup path.
		for i := 0; i < 3000; i++ {
			e := stream[rng.Intn(len(stream))]
			if err := r.Add(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		// Rebuild the reservoir subgraph from the live adjacency.
		b := graph.NewBuilder(120, 90)
		for u, nbrs := range r.adjU {
			for _, v := range nbrs {
				b.AddEdge(int(u), int(v))
			}
		}
		want := core.CountAuto(b.Build())
		snap := r.Snapshot()
		if snap.Butterflies != want {
			t.Fatalf("cap=%d: incremental count %d, recount %d", capacity, snap.Butterflies, want)
		}
	}
}

// TestReservoirUnbiased checks the estimator statistically: the mean
// over many independent seeds must land within a few standard errors of
// the exact count.
func TestReservoirUnbiased(t *testing.T) {
	g := gen.PowerLawBipartite(200, 150, 2000, 0.7, 0.7, 4)
	exact := float64(core.CountAuto(g))
	stream := streamOf(g)
	const trials = 40
	var sum float64
	covered := 0
	for seed := int64(0); seed < trials; seed++ {
		r, err := NewReservoir(200, 150, 800, seed)
		if err != nil {
			t.Fatal(err)
		}
		perm := rand.New(rand.NewSource(seed + 100)).Perm(len(stream))
		for _, i := range perm {
			if err := r.Add(stream[i][0], stream[i][1]); err != nil {
				t.Fatal(err)
			}
		}
		snap := r.Snapshot()
		sum += snap.Estimate
		if snap.StdErr <= 0 {
			t.Fatalf("seed %d: scaled regime must report positive stderr", seed)
		}
		if math.Abs(snap.Estimate-exact) <= snap.CI95 {
			covered++
		}
	}
	mean := sum / trials
	if rel := math.Abs(mean-exact) / exact; rel > 0.30 {
		t.Fatalf("mean of %d trials %.1f vs exact %.0f (rel err %.2f)", trials, mean, exact, rel)
	}
	// The binomial-approximation CI is not a guaranteed 95% interval
	// (butterfly survivals are correlated), but it should cover the
	// truth more often than not.
	if covered < trials/2 {
		t.Fatalf("CI95 covered exact only %d/%d times", covered, trials)
	}
}

func TestReservoirValidation(t *testing.T) {
	if _, err := NewReservoir(-1, 5, 10, 0); err == nil {
		t.Fatal("negative dimension must error")
	}
	if _, err := NewReservoir(5, 5, 3, 0); err == nil {
		t.Fatal("capacity below 4 must error")
	}
	r, err := NewReservoir(5, 5, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add(5, 0); err == nil {
		t.Fatal("out-of-range edge must error")
	}
	if err := r.AddBatch([][2]int{{0, 0}, {0, 9}}); err == nil {
		t.Fatal("out-of-range batch edge must error")
	}
	if got := r.Seen(); got != 0 {
		t.Fatalf("failed adds must not advance the stream, seen=%d", got)
	}
}

// TestReservoirConcurrent runs batched ingest against concurrent
// snapshot reads; under -race this proves the locking discipline, and
// the final snapshot must be exact and correct.
func TestReservoirConcurrent(t *testing.T) {
	g := gen.PowerLawBipartite(150, 100, 1200, 0.7, 0.7, 11)
	exact := float64(core.CountAuto(g))
	stream := streamOf(g)
	r, err := NewReservoir(150, 100, len(stream)+1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := r.Snapshot()
				if snap.Estimate < 0 || snap.ReservoirSize > snap.Capacity {
					t.Errorf("inconsistent snapshot: %+v", snap)
					return
				}
			}
		}()
	}
	const batch = 64
	for lo := 0; lo < len(stream); lo += batch {
		hi := lo + batch
		if hi > len(stream) {
			hi = len(stream)
		}
		if err := r.AddBatch(stream[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if snap := r.Snapshot(); snap.Estimate != exact {
		t.Fatalf("post-ingest estimate %g, want %g", snap.Estimate, exact)
	}
}

// --- Sampling ---

func TestSampleExactOnUniformGraph(t *testing.T) {
	g := gen.CompleteBipartite(5, 6)
	exact := float64(core.CountAuto(g))
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		res, err := Sample(g, Options{Strategy: strat, Samples: 1, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != exact {
			t.Fatalf("%v: single-sample estimate on uniform graph %g, want %g", strat, res.Estimate, exact)
		}
		if res.Samples != 1 || res.StdErr != 0 {
			t.Fatalf("%v: want 1 sample and zero stderr, got %d/%g", strat, res.Samples, res.StdErr)
		}
	}
}

// TestSampleAdaptiveStops checks the stopping rule: on a uniform graph
// the sample variance is zero, so the adaptive loop must stop at
// MinSamples with a tight CI; on a skewed graph it must stop before
// MaxSamples once the target is met, and the reported CI must honor the
// target.
func TestSampleAdaptiveStops(t *testing.T) {
	uniform := gen.CompleteBipartite(8, 8)
	res, err := Sample(uniform, Options{Strategy: StrategyVertices, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != DefaultMinSamples {
		t.Fatalf("uniform graph: adaptive loop drew %d samples, want %d", res.Samples, DefaultMinSamples)
	}
	if res.CI95 != 0 {
		t.Fatalf("uniform graph: CI should collapse, got %g", res.CI95)
	}

	skewed := gen.PowerLawBipartite(400, 300, 5000, 0.8, 0.7, 6)
	res, err = Sample(skewed, Options{Strategy: StrategyEdges, TargetRelErr: 0.10, MaxSamples: 40000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < DefaultMinSamples {
		t.Fatalf("drew %d samples, below the minimum", res.Samples)
	}
	if res.Samples < 40000 && res.CI95 > 0.10*res.Estimate {
		t.Fatalf("stopped at %d samples with CI %.1f > 10%% of %.1f", res.Samples, res.CI95, res.Estimate)
	}
}

// TestSampleStatisticalAcceptance runs the estimators over repeated
// seeds: the mean must land within k·stderr of the exact count, with
// stderr of the mean derived from the per-run spread.
func TestSampleStatisticalAcceptance(t *testing.T) {
	g := gen.PowerLawBipartite(300, 200, 2500, 0.8, 0.7, 5)
	exact := float64(core.CountAuto(g))
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		const trials = 30
		var sum, sumsq float64
		for seed := int64(0); seed < trials; seed++ {
			res, err := Sample(g, Options{Strategy: strat, Samples: 400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Estimate
			sumsq += res.Estimate * res.Estimate
		}
		mean := sum / trials
		varMean := (sumsq/trials - mean*mean) / (trials - 1)
		se := math.Sqrt(math.Max(varMean, 1))
		if math.Abs(mean-exact) > 5*se {
			t.Fatalf("%v: mean %.1f vs exact %.0f exceeds 5·stderr (%.1f)", strat, mean, exact, se)
		}
	}
}

// TestSampleAccumulatorsAgree checks the per-sample values the
// wedge accumulator yields against the exact kernels: every vertex
// sample must equal the vertex's butterfly count and every edge sample
// the edge's support, with the accumulator reused across all of them.
func TestSampleAccumulatorsAgree(t *testing.T) {
	g := gen.PowerLawBipartite(200, 150, 1800, 0.7, 0.7, 8)
	wk := wedgeKernel{g: g, adj: g.Adj(), adjT: g.AdjT(), acc: newDenseAccum(g.NumV1())}
	for u, want := range core.VertexButterflies(g, core.SideV1) {
		if got := wk.vertexSample(u); got != want {
			t.Fatalf("vertex %d: sample %d, exact %d", u, got, want)
		}
	}
	for k, want := range core.EdgeSupport(g).Val {
		if got := wk.edgeSample(int64(k)); got != want {
			t.Fatalf("edge %d: sample %d, exact support %d", k, got, want)
		}
	}
}

func TestSampleDegenerate(t *testing.T) {
	empty := gen.CompleteBipartite(0, 0)
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		res, err := Sample(empty, Options{Strategy: strat, Samples: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != 0 || res.Samples != 0 {
			t.Fatalf("%v: empty graph should report a zero result, got %+v", strat, res)
		}
	}
	star := gen.Star(6)
	res, err := Sample(star, Options{Strategy: StrategyVertices, Samples: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("star has no butterflies, estimate %g", res.Estimate)
	}
	if _, err := Sample(star, Options{Strategy: Strategy(9)}); err == nil {
		t.Fatal("invalid strategy must error")
	}
	if _, err := Sample(star, Options{Samples: -1}); err == nil {
		t.Fatal("negative samples must error")
	}
}

func TestEdgeRow(t *testing.T) {
	ptr := []int64{0, 2, 2, 5, 6}
	cases := []struct {
		k    int64
		want int
	}{{0, 0}, {1, 0}, {2, 2}, {4, 2}, {5, 3}}
	for _, c := range cases {
		if got := edgeRow(ptr, c.k); got != c.want {
			t.Errorf("edgeRow(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	g := gen.PowerLawBipartite(150, 120, 1000, 0.7, 0.7, 9)
	a, _ := Sample(g, Options{Strategy: StrategyEdges, Samples: 300, Seed: 21})
	b, _ := Sample(g, Options{Strategy: StrategyEdges, Samples: 300, Seed: 21})
	if a != b {
		t.Fatalf("same seed must reproduce: %+v vs %+v", a, b)
	}
}
