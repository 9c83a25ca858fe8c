package estimate

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"butterfly/internal/graph"
)

// Strategy selects a per-query sampling estimator for a fully
// materialized graph.
type Strategy int

const (
	// StrategyVertices estimates from uniformly sampled V1 vertices:
	// ΞG ≈ |V1| · mean(b_u) / 2 (each butterfly touches two V1
	// vertices).
	StrategyVertices Strategy = iota
	// StrategyEdges estimates from uniformly sampled edges:
	// ΞG ≈ |E| · mean(support) / 4 (each butterfly has four edges).
	// Usually lower-variance on skewed graphs because edge supports are
	// more homogeneous than vertex participations.
	StrategyEdges
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyVertices:
		return "vertices"
	case StrategyEdges:
		return "edges"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Defaults for the adaptive stopping rule.
const (
	DefaultTargetRelErr = 0.05
	DefaultMinSamples   = 64
	DefaultMaxSamples   = 1 << 16
	adaptiveBatch       = 32
)

// Options configures Sample.
type Options struct {
	Strategy Strategy
	// Samples > 0 draws exactly that many samples (no early stop).
	// Samples == 0 enables the adaptive stopping rule.
	Samples int
	// TargetRelErr is the adaptive target: stop once the 95% CI
	// half-width falls below TargetRelErr · estimate. 0 means
	// DefaultTargetRelErr.
	TargetRelErr float64
	// MinSamples / MaxSamples bound the adaptive loop; 0 means the
	// package defaults.
	MinSamples int
	MaxSamples int
	// Seed makes the estimator deterministic.
	Seed int64
}

// Result is a point estimate with error bars. StdErr is the standard
// error of the scaled estimator mean (zero when fewer than two samples
// were drawn); CI95 is its 1.96× half-width.
type Result struct {
	Estimate float64
	StdErr   float64
	CI95     float64
	Samples  int
}

// Sample estimates the butterfly count of g by Monte-Carlo sampling.
// With Options.Samples > 0 it draws a fixed number of samples; with
// Samples == 0 it draws in batches until the 95% CI half-width falls
// below TargetRelErr × estimate (bounded by Min/MaxSamples). Both
// estimators are unbiased (see docs/ALGORITHMS.md for the derivation);
// the per-sample kernel is the shared wedge accumulator also used by
// the internal/baseline wrappers.
func Sample(g *graph.Bipartite, opts Options) (Result, error) {
	return SampleContext(context.Background(), g, opts)
}

// SampleContext is Sample with cooperative cancellation: ctx is polled
// between batches of draws (every 32 samples), and a done context ends
// the call with ctx.Err().
func SampleContext(ctx context.Context, g *graph.Bipartite, opts Options) (Result, error) {
	if opts.Strategy != StrategyVertices && opts.Strategy != StrategyEdges {
		return Result{}, fmt.Errorf("estimate: invalid strategy %v", opts.Strategy)
	}
	if opts.Samples < 0 {
		return Result{}, fmt.Errorf("estimate: negative sample count %d", opts.Samples)
	}
	var scale, population float64
	if opts.Strategy == StrategyVertices {
		population = float64(g.NumV1())
		scale = population / 2
	} else {
		population = float64(g.NumEdges())
		scale = population / 4
	}
	if population == 0 {
		return Result{}, nil
	}

	target := opts.TargetRelErr
	if target <= 0 {
		target = DefaultTargetRelErr
	}
	minS, maxS := opts.MinSamples, opts.MaxSamples
	if minS <= 0 {
		minS = DefaultMinSamples
	}
	if maxS <= 0 {
		maxS = DefaultMaxSamples
	}
	if maxS < minS {
		maxS = minS
	}
	if opts.Samples > 0 {
		minS, maxS = opts.Samples, opts.Samples
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	acc := newDenseAccum(g.NumV1())
	kernel := wedgeKernel{g: g, adj: g.Adj(), adjT: g.AdjT(), acc: acc}

	// Welford running mean/variance of the raw per-sample values.
	var k int
	var mean, m2 float64
	push := func(x float64) {
		k++
		d := x - mean
		mean += d / float64(k)
		m2 += d * (x - mean)
	}
	result := func() Result {
		res := Result{Estimate: scale * mean, Samples: k}
		if k >= 2 {
			sd := math.Sqrt(m2 / float64(k-1))
			res.StdErr = scale * sd / math.Sqrt(float64(k))
			res.CI95 = 1.96 * res.StdErr
		}
		return res
	}

	for k < maxS {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		batch := adaptiveBatch
		if k+batch > maxS {
			batch = maxS - k
		}
		for i := 0; i < batch; i++ {
			if opts.Strategy == StrategyVertices {
				push(float64(kernel.vertexSample(rng.Intn(g.NumV1()))))
			} else {
				push(float64(kernel.edgeSample(rng.Int63n(g.NumEdges()))))
			}
		}
		if k < minS {
			continue
		}
		res := result()
		if res.Estimate > 0 && res.CI95 <= target*res.Estimate {
			break
		}
		if m2 == 0 {
			// Zero sample variance: either a perfectly uniform graph or
			// an all-zero stretch. More identical samples add nothing.
			break
		}
	}
	return result(), nil
}

// VertexSampling draws exactly `samples` V1 vertices and returns the
// scaled estimate — the fixed-budget entry point internal/baseline
// delegates to. samples must be positive.
func VertexSampling(g *graph.Bipartite, samples int, seed int64) float64 {
	res, err := Sample(g, Options{Strategy: StrategyVertices, Samples: samples, Seed: seed})
	if err != nil {
		panic(err)
	}
	return res.Estimate
}

// EdgeSampling draws exactly `samples` edges and returns the scaled
// estimate. samples must be positive.
func EdgeSampling(g *graph.Bipartite, samples int, seed int64) float64 {
	res, err := Sample(g, Options{Strategy: StrategyEdges, Samples: samples, Seed: seed})
	if err != nil {
		panic(err)
	}
	return res.Estimate
}

// wedgeKernel computes exact per-vertex butterfly participations and
// per-edge supports through one shared accumulator — the deduplicated
// core of both sampling estimators.
type wedgeKernel struct {
	g         *graph.Bipartite
	adj, adjT interface {
		Row(int) []int32
	}
	acc *denseAccum
}

// gather fills the accumulator with β_uw = |N(u) ∩ N(w)| for every V1
// vertex w ≠ u reachable through a common neighbor.
func (wk *wedgeKernel) gather(u int) {
	u32 := int32(u)
	for _, v := range wk.adj.Row(u) {
		for _, w := range wk.adjT.Row(int(v)) {
			if w != u32 {
				wk.acc.inc(w)
			}
		}
	}
}

// vertexSample returns b_u = Σ_w C(β_uw, 2), the number of butterflies
// vertex u participates in.
func (wk *wedgeKernel) vertexSample(u int) int64 {
	wk.gather(u)
	var bu int64
	wk.acc.drain(func(c int64) {
		bu += c * (c - 1) / 2
	})
	return bu
}

// edgeSample returns support(u,v) = Σ_{w∈N(v), w≠u} (β_uw − 1) for the
// edge at flat CSR position k.
func (wk *wedgeKernel) edgeSample(k int64) int64 {
	g := wk.g
	u := edgeRow(g.Adj().Ptr, k)
	v := g.Adj().Col[k]
	u32 := int32(u)
	wk.gather(u)
	var sup int64
	for _, w := range wk.adjT.Row(int(v)) {
		if w == u32 {
			continue
		}
		sup += wk.acc.get(w) - 1
	}
	wk.acc.reset()
	return sup
}

// edgeRow locates the row containing flat edge index k by binary search
// over the CSR row pointer.
func edgeRow(ptr []int64, k int64) int {
	lo, hi := 0, len(ptr)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if ptr[mid] <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// denseAccum is the per-sample wedge accumulator: a per-V1-vertex
// counter array with a touched list. drain visits every nonzero
// counter and resets; get/reset serve the edge-support path, which
// needs random access after gathering.
type denseAccum struct {
	counts  []int32
	touched []int32
}

func newDenseAccum(n int) *denseAccum {
	return &denseAccum{counts: make([]int32, n), touched: make([]int32, 0, 1024)}
}

func (a *denseAccum) inc(w int32) {
	if a.counts[w] == 0 {
		a.touched = append(a.touched, w)
	}
	a.counts[w]++
}

func (a *denseAccum) get(w int32) int64 { return int64(a.counts[w]) }

func (a *denseAccum) drain(f func(c int64)) {
	for _, w := range a.touched {
		f(int64(a.counts[w]))
		a.counts[w] = 0
	}
	a.touched = a.touched[:0]
}

func (a *denseAccum) reset() {
	for _, w := range a.touched {
		a.counts[w] = 0
	}
	a.touched = a.touched[:0]
}
