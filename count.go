package butterfly

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"butterfly/internal/baseline"
	"butterfly/internal/core"
	"butterfly/internal/estimate"
	"butterfly/internal/graph"
)

// Invariant selects a member of the paper's algorithm family. The zero
// value (InvariantAuto) applies the paper's selection rule: partition
// the smaller vertex side, preferring the look-ahead member.
type Invariant int

// The eight loop invariants of the paper (Fig 4 and Fig 5).
// Invariant1–4 partition V2 and traverse columns of the biadjacency
// matrix; Invariant5–8 partition V1 and traverse rows. Invariant2,
// Invariant3, Invariant6 and Invariant7 are "look-ahead" algorithms —
// they count against the partition that has not been exposed yet.
const (
	InvariantAuto Invariant = iota
	Invariant1
	Invariant2
	Invariant3
	Invariant4
	Invariant5
	Invariant6
	Invariant7
	Invariant8
)

// NumInvariants is the size of the family.
const NumInvariants = 8

// String names the invariant.
func (inv Invariant) String() string {
	if inv == InvariantAuto {
		return "auto"
	}
	if inv >= Invariant1 && inv <= Invariant8 {
		return fmt.Sprintf("Inv%d", int(inv))
	}
	return fmt.Sprintf("Invariant(%d)", int(inv))
}

// Valid reports whether inv is InvariantAuto or one of the eight family
// members.
func (inv Invariant) Valid() bool { return inv >= InvariantAuto && inv <= Invariant8 }

// Order selects an optional vertex relabeling applied before counting
// (the count itself is invariant under relabeling; degree orders are
// the locality optimization the paper's future work points at).
type Order int

const (
	// OrderNatural keeps input vertex ids.
	OrderNatural Order = iota
	// OrderDegreeAsc relabels each side by ascending degree.
	OrderDegreeAsc
	// OrderDegreeDesc relabels each side by descending degree.
	OrderDegreeDesc
)

func (o Order) internal() (graph.Order, error) {
	switch o {
	case OrderNatural:
		return graph.OrderNatural, nil
	case OrderDegreeAsc:
		return graph.OrderDegreeAsc, nil
	case OrderDegreeDesc:
		return graph.OrderDegreeDesc, nil
	default:
		return 0, fmt.Errorf("butterfly: invalid order %d", int(o))
	}
}

// Algorithm selects the counting implementation. The default
// (AlgorithmFamily) is the paper's loop-invariant family; the others
// are the independent counters the paper builds on or compares with,
// exposed so downstream users can benchmark against them on their own
// data.
type Algorithm int

const (
	// AlgorithmFamily is the paper's derived family (Invariant picks
	// the member; supports Threads and BlockSize).
	AlgorithmFamily Algorithm = iota
	// AlgorithmWedgeHash is the hash-aggregation counter of Wang et
	// al. 2014 — O(Σdeg²) space.
	AlgorithmWedgeHash
	// AlgorithmVertexPriority is the priority-ordered counter of Wang
	// et al. 2019.
	AlgorithmVertexPriority
	// AlgorithmSortAggregate is the sort-based wedge aggregation of
	// ParButterfly (Shi & Shun 2019); supports Threads.
	AlgorithmSortAggregate
	// AlgorithmSpGEMM executes the linear-algebra specification
	// directly on the sparse substrate (materializes AAᵀ); supports
	// Threads.
	AlgorithmSpGEMM
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmFamily:
		return "family"
	case AlgorithmWedgeHash:
		return "wedge-hash"
	case AlgorithmVertexPriority:
		return "vertex-priority"
	case AlgorithmSortAggregate:
		return "sort-aggregate"
	case AlgorithmSpGEMM:
		return "spgemm"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Arena is a reusable pool of counting workspaces. Passing the same
// Arena to repeated counts (CountOptions.Arena) makes the steady state
// allocation-free — the win measured in docs/PERFORMANCE.md for
// peeling rounds and repeated-query serving. The zero value is not
// usable; construct with NewArena. Safe for concurrent use.
type Arena struct {
	a *core.Arena
}

// NewArena returns an empty workspace pool.
func NewArena() *Arena { return &Arena{a: core.NewArena()} }

func (a *Arena) internal() *core.Arena {
	if a == nil {
		return nil
	}
	return a.a
}

// CountOptions configures CountWith.
type CountOptions struct {
	// Algorithm selects the implementation; the zero value is the
	// paper's family.
	Algorithm Algorithm
	// Invariant picks the family member; InvariantAuto selects by the
	// paper's rule. Only meaningful with AlgorithmFamily.
	Invariant Invariant
	// Threads > 1 runs the parallel algorithm; 0 and 1 are sequential;
	// negative means GOMAXPROCS.
	Threads int
	// BlockSize > 1 runs the blocked variant exposing that many
	// vertices per iteration (AlgorithmFamily only).
	BlockSize int
	// Order optionally relabels vertices first.
	Order Order
	// Arena optionally supplies a workspace pool reused across counts;
	// nil allocates fresh scratch per run (AlgorithmFamily only). See
	// NewArena.
	Arena *Arena
	// Stage, when non-nil, receives coarse stage timings, in order:
	//   - "core.order" for the relabeling pass when Order is set, or
	//     "core.relayout" for the automatic degree-ordered relayout a
	//     family count runs on a hub-skewed graph in natural order
	//     (first count on a graph only: the relayouted twin is cached);
	//   - "core.count" for a family count, or "core.<algorithm>" (e.g.
	//     "core.wedge-hash") for a baseline count.
	// The hook fires at most twice per call — never inside the
	// counting loops — so a nil hook is free and an installed hook
	// costs a few clock reads. The serving layer adapts this to trace
	// spans.
	Stage func(stage string, d time.Duration)
}

// Count returns the exact number of butterflies using the
// automatically selected sequential algorithm.
func (g *Graph) Count() int64 { return core.CountAuto(g.g) }

// CountParallel counts with `threads` workers (GOMAXPROCS if ≤ 0).
func (g *Graph) CountParallel(threads int) int64 {
	if threads <= 0 {
		threads = -1
	}
	return core.CountWith(g.g, core.Options{Threads: threads})
}

// CountWith counts with full control over algorithm selection. It is
// equivalent to CountWithContext with context.Background().
func (g *Graph) CountWith(opts CountOptions) (int64, error) {
	return g.CountWithContext(context.Background(), opts)
}

// CountWithContext is CountWith with cooperative cancellation: when
// ctx is cancelled (deadline, timeout or explicit cancel) the call
// returns promptly with ctx.Err() and a zero count.
//
// For AlgorithmFamily the cancellation flag is polled inside the core
// counting loops — between exposed vertices sequentially, between
// schedule units in parallel — so the workers themselves stop within a
// bounded slice of work and no goroutine outlives the call. For the
// baseline algorithms (which have no checkpoints in their inner loops)
// the count runs in a helper goroutine that is abandoned on
// cancellation: the call still returns promptly, but the goroutine
// finishes its count in the background and discards the result.
func (g *Graph) CountWithContext(ctx context.Context, opts CountOptions) (int64, error) {
	if g == nil || g.g == nil {
		return 0, errNilGraph
	}
	if !opts.Invariant.Valid() {
		return 0, fmt.Errorf("butterfly: invalid invariant %v", opts.Invariant)
	}
	if opts.BlockSize < 0 {
		return 0, fmt.Errorf("butterfly: negative block size %d", opts.BlockSize)
	}
	ord, err := opts.Order.internal()
	if err != nil {
		return 0, err
	}
	threads := opts.Threads
	if threads < 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	switch opts.Algorithm {
	case AlgorithmFamily:
		// The core relabels for an explicit Order itself, and then
		// skips its automatic relayout.
		return core.CountContext(ctx, g.g, core.Options{
			Invariant: core.Invariant(opts.Invariant),
			Threads:   threads,
			BlockSize: opts.BlockSize,
			Order:     ord,
			Arena:     opts.Arena.internal(),
			Stage:     opts.Stage,
		})
	case AlgorithmWedgeHash, AlgorithmVertexPriority, AlgorithmSortAggregate, AlgorithmSpGEMM:
		if opts.Invariant != InvariantAuto {
			return 0, fmt.Errorf("butterfly: Invariant is only meaningful with AlgorithmFamily, got %v with %v", opts.Invariant, opts.Algorithm)
		}
		gg := g.g
		if ord != graph.OrderNatural {
			if opts.Stage != nil {
				t0 := time.Now()
				gg, _, _ = gg.Relabel(ord)
				opts.Stage("core.order", time.Since(t0))
			} else {
				gg, _, _ = gg.Relabel(ord)
			}
		}
		run := func() int64 {
			var t0 time.Time
			if opts.Stage != nil {
				t0 = time.Now()
			}
			var c int64
			switch opts.Algorithm {
			case AlgorithmWedgeHash:
				c = baseline.CountWedgeHash(gg)
			case AlgorithmVertexPriority:
				c = baseline.CountVertexPriorityParallel(gg, threads)
			case AlgorithmSortAggregate:
				c = baseline.CountSortAggregate(gg, threads)
			default:
				c = core.CountSpGEMMParallel(gg, threads)
			}
			if opts.Stage != nil {
				opts.Stage("core."+opts.Algorithm.String(), time.Since(t0))
			}
			return c
		}
		if ctx.Done() == nil {
			return run(), nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		done := make(chan int64, 1)
		go func() { done <- run() }()
		select {
		case c := <-done:
			return c, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	default:
		return 0, fmt.Errorf("butterfly: invalid algorithm %v", opts.Algorithm)
	}
}

// CountInvariant counts with one specific family member, sequentially.
func (g *Graph) CountInvariant(inv Invariant) (int64, error) {
	return g.CountWith(CountOptions{Invariant: inv})
}

// VertexButterflies returns, for every vertex of the chosen side, the
// number of butterflies it participates in. The vector sums to twice
// the total count.
func (g *Graph) VertexButterflies(side Side) ([]int64, error) {
	s, err := side.internal()
	if err != nil {
		return nil, err
	}
	return core.VertexButterflies(g.g, s), nil
}

// EdgeCount pairs an edge with a butterfly count (its support or wing
// number depending on the producing call).
type EdgeCount struct {
	U, V  int
	Count int64
}

// EdgeSupports returns the butterfly support of every edge — the
// number of butterflies containing it (the matrix S_w of the paper's
// equation (25)). The supports sum to four times the total count.
func (g *Graph) EdgeSupports() []EdgeCount {
	s := core.EdgeSupport(g.g)
	out := make([]EdgeCount, 0, s.NNZ())
	for u := 0; u < s.R; u++ {
		row := s.Row(u)
		vals := s.RowVals(u)
		for k, v := range row {
			out = append(out, EdgeCount{U: u, V: int(v), Count: vals[k]})
		}
	}
	return out
}

// Wedges returns the wedge totals of equation (6) for both
// orientations: wedges with endpoints in V1, and with endpoints in V2.
func (g *Graph) Wedges() (endpointsV1, endpointsV2 int64) {
	return core.WedgeCount(g.g)
}

// ClusteringCoefficient returns the bipartite clustering coefficient:
// 4·ΞG / caterpillars (length-3 paths); 1 on complete bipartite
// graphs, 0 on butterfly-free graphs.
func (g *Graph) ClusteringCoefficient() float64 {
	return core.ClusteringCoefficient(g.g)
}

// Butterfly is one enumerated 2×2 biclique: U1 < U2 in V1 and W1 < W2
// in V2, all four edges present.
type Butterfly struct {
	U1, U2 int // V1 vertices
	W1, W2 int // V2 vertices
}

// Butterflies calls yield for every butterfly in lexicographic order,
// stopping early if yield returns false. Enumeration is Θ(output), so
// use Count for totals.
func (g *Graph) Butterflies(yield func(Butterfly) bool) {
	baseline.ListButterflies(g.g, func(b baseline.Butterfly) bool {
		return yield(Butterfly{U1: int(b.U1), U2: int(b.U2), W1: int(b.W1), W2: int(b.W2)})
	})
}

// EstimateStrategy selects a sampling estimator.
type EstimateStrategy int

const (
	// SampleVertices estimates from uniformly sampled V1 vertices.
	SampleVertices EstimateStrategy = iota
	// SampleEdges estimates from uniformly sampled edges; usually
	// lower-variance on skewed graphs.
	SampleEdges
	// SampleSparsify keeps each edge with probability P, counts the
	// sparsified graph exactly and scales by 1/P⁴ (a butterfly
	// survives iff all four edges do).
	SampleSparsify
)

// EstimateOptions configures EstimateCount and EstimateWithCI.
type EstimateOptions struct {
	Strategy EstimateStrategy
	// Samples fixes the draw count for SampleVertices/SampleEdges.
	// EstimateCount requires it positive; EstimateWithCI also accepts
	// 0, which enables the adaptive stopping rule (draw until the 95%
	// CI half-width falls below TargetRelErr × estimate).
	Samples int
	P       float64 // keep-probability for SampleSparsify; in (0, 1]
	Seed    int64   // RNG seed; estimators are deterministic given it
	// TargetRelErr is the adaptive accuracy target (EstimateWithCI
	// with Samples == 0); 0 means 5%.
	TargetRelErr float64
	// MaxSamples bounds the adaptive loop; 0 means the package default
	// (65536).
	MaxSamples int
}

// EstimateResult is a point estimate with error bars. StdErr is the
// standard error of the estimator (zero when it cannot be measured:
// fewer than two samples, or the sparsify strategy, which reports no
// error bars); CI95 is its 1.96× half-width. Samples is the number of
// draws actually taken — under the adaptive rule, where the loop
// stopped.
type EstimateResult struct {
	Estimate float64
	StdErr   float64
	CI95     float64
	Samples  int
}

// EstimateCount approximates the butterfly count with an unbiased
// sampling estimator (Sanei-Mehri et al., KDD'18 style). For error
// bars and adaptive sample sizing use EstimateWithCI.
func (g *Graph) EstimateCount(opts EstimateOptions) (float64, error) {
	if (opts.Strategy == SampleVertices || opts.Strategy == SampleEdges) && opts.Samples <= 0 {
		return 0, fmt.Errorf("butterfly: Samples must be positive, got %d", opts.Samples)
	}
	res, err := g.EstimateWithCI(opts)
	return res.Estimate, err
}

// EstimateWithCI approximates the butterfly count and reports error
// bars. For SampleVertices/SampleEdges with Samples == 0 the sample
// size is chosen adaptively: draws accumulate in batches until the 95%
// confidence half-width falls below TargetRelErr × estimate (bounded
// by MaxSamples). SampleSparsify runs one exact count of a sparsified
// graph and reports no error bars.
func (g *Graph) EstimateWithCI(opts EstimateOptions) (EstimateResult, error) {
	if g == nil || g.g == nil {
		return EstimateResult{}, errNilGraph
	}
	switch opts.Strategy {
	case SampleVertices, SampleEdges:
		strat := estimate.StrategyVertices
		if opts.Strategy == SampleEdges {
			strat = estimate.StrategyEdges
		}
		return estimateResult(estimate.Sample(g.g, estimate.Options{
			Strategy:     strat,
			Samples:      opts.Samples,
			TargetRelErr: opts.TargetRelErr,
			MaxSamples:   opts.MaxSamples,
			Seed:         opts.Seed,
		}))
	case SampleSparsify:
		if opts.P <= 0 || opts.P > 1 {
			return EstimateResult{}, fmt.Errorf("butterfly: P must be in (0,1], got %g", opts.P)
		}
		return EstimateResult{Estimate: baseline.EstimateSparsify(g.g, opts.P, opts.Seed)}, nil
	default:
		return EstimateResult{}, fmt.Errorf("butterfly: invalid estimate strategy %d", int(opts.Strategy))
	}
}

func estimateResult(r estimate.Result, err error) (EstimateResult, error) {
	if err != nil {
		return EstimateResult{}, fmt.Errorf("butterfly: %w", err)
	}
	return EstimateResult{Estimate: r.Estimate, StdErr: r.StdErr, CI95: r.CI95, Samples: r.Samples}, nil
}

// Verify cross-checks the whole algorithm family plus three independent
// baseline counters on g, returning an error naming the first
// disagreement. Intended for acceptance testing on new datasets; it
// runs several full counts.
func (g *Graph) Verify() error { return baseline.VerifyAll(g.g) }
