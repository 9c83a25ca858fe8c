// Package core implements the paper's primary contribution: the family
// of eight provably-correct butterfly counting algorithms derived from
// the linear-algebraic specification
//
//	ΞG = ¼Γ(AAᵀAAᵀ) − ¼Γ(AAᵀ∘AAᵀ) − (¼Γ(JAAᵀ) − ¼Γ(AAᵀ))     (eq. 7)
//
// via the FLAME methodology, plus the per-vertex and per-edge butterfly
// counts that power k-tip and k-wing peeling.
//
// # The algorithm family
//
// Each loop invariant of the paper corresponds to one traversal of one
// vertex side with one partner restriction. For invariants 1–4 the
// exposed unit is a column a1 of A (a vertex v2k ∈ V2) and the update is
// equation (18):
//
//	ΞG += ½·a1ᵀ·Ap·Apᵀ·a1 − ½·Γ(a1a1ᵀ ∘ ApApᵀ)
//
// where Ap is the partner partition (A0 = already-exposed columns for
// the eager variants, A2 = not-yet-exposed columns for the look-ahead
// variants). Concretely the update is Σ_j C(|N(v2k) ∩ N(v2j)|, 2) over
// partner columns j, computed with a sparse wedge accumulator — the
// subtraction term of (18) never materializes, exactly as the paper
// notes ("by carefully implementing this update, the computation of the
// subtraction term can be avoided"). Invariants 5–8 are the symmetric
// row-partitioned family.
//
// Work bounds follow directly: invariants 1–4 touch every pair of
// columns sharing a row, Σ_{u∈V1} C(deg u, 2) wedge steps, while
// invariants 5–8 touch Σ_{v∈V2} C(deg v, 2). This is the mechanism
// behind the paper's "partition the smaller vertex set" guidance.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"butterfly/internal/graph"
)

// Invariant selects one of the paper's eight loop invariants (Fig 4 and
// Fig 5), i.e. one member of the algorithm family.
type Invariant int

const (
	// Inv1 partitions V2, traverses L→R, counts against the exposed
	// partition A0 (Fig 6, Algorithm 1).
	Inv1 Invariant = iota + 1
	// Inv2 partitions V2, traverses L→R, counts against the unexposed
	// partition A2 — a "look-ahead" algorithm (Fig 6, Algorithm 2).
	Inv2
	// Inv3 partitions V2, traverses R→L, counts against A0, which is
	// unexposed under this traversal (Fig 6, Algorithm 3).
	Inv3
	// Inv4 partitions V2, traverses R→L, counts against A2 (Fig 6,
	// Algorithm 4).
	Inv4
	// Inv5 partitions V1, traverses T→B, counts against A0 (Fig 7,
	// Algorithm 5).
	Inv5
	// Inv6 partitions V1, traverses T→B, counts against A2 (Fig 7,
	// Algorithm 6).
	Inv6
	// Inv7 partitions V1, traverses B→T, counts against A0 — a
	// "look-ahead" algorithm (Fig 7, Algorithm 7).
	Inv7
	// Inv8 partitions V1, traverses B→T, counts against A2 (Fig 7,
	// Algorithm 8).
	Inv8
)

// NumInvariants is the size of the algorithm family.
const NumInvariants = 8

// Invariants lists the whole family in paper order.
func Invariants() []Invariant {
	return []Invariant{Inv1, Inv2, Inv3, Inv4, Inv5, Inv6, Inv7, Inv8}
}

// String returns the paper's name for the invariant.
func (inv Invariant) String() string {
	if inv < Inv1 || inv > Inv8 {
		return fmt.Sprintf("Invariant(%d)", int(inv))
	}
	return fmt.Sprintf("Inv%d", int(inv))
}

// PartitionsV2 reports whether the invariant belongs to the
// column-partitioned family (1–4).
func (inv Invariant) PartitionsV2() bool { return inv >= Inv1 && inv <= Inv4 }

// LookAhead reports whether the invariant counts against the partition
// that has not been exposed yet (the paper's "look-ahead" property).
func (inv Invariant) LookAhead() bool {
	switch inv {
	case Inv2, Inv3, Inv6, Inv7:
		return true
	default:
		return false
	}
}

// traversal geometry of an invariant: iteration direction over the
// exposed side and whether partners are taken from indices below or
// above the exposed vertex.
func (inv Invariant) geometry() (descending, partnersAbove bool) {
	switch inv {
	case Inv1: // L→R, partners in A0 (left of a1): j < k
		return false, false
	case Inv2: // L→R, partners in A2 (right): j > k
		return false, true
	case Inv3: // R→L, partners in A0 (left): j < k
		return true, false
	case Inv4: // R→L, partners in A2 (right): j > k
		return true, true
	case Inv5: // T→B, partners in A0 (above): w < u
		return false, false
	case Inv6: // T→B, partners in A2 (below): w > u
		return false, true
	case Inv7: // B→T, partners in A0 (above): w < u
		return true, false
	case Inv8: // B→T, partners in A2 (below): w > u
		return true, true
	default:
		panic("core: invalid invariant " + inv.String())
	}
}

// Options configures a counting run.
type Options struct {
	// Invariant selects the family member; zero value defaults to
	// automatic selection (the family that partitions the smaller
	// vertex set, look-ahead variant).
	Invariant Invariant
	// Threads > 1 runs the parallel algorithm with that many workers;
	// 0 or 1 runs sequentially. Negative uses GOMAXPROCS.
	Threads int
	// BlockSize > 1 exposes BlockSize vertices per iteration (the
	// blocked variants); 0 or 1 is the unblocked algorithm of Fig 6/7.
	BlockSize int
	// Order optionally relabels vertices before counting (degree
	// ordering is the paper's future-work optimization; the count is
	// invariant under relabeling).
	Order graph.Order
	// Arena optionally supplies a workspace pool reused across counts;
	// nil allocates fresh scratch per run. See NewArena.
	Arena *Arena
	// stop, when non-nil, is polled at checkpoints by every counting
	// loop (every stopStride+1 exposed vertices, between schedule units
	// in parallel, once per block). Once it reads true the loops
	// abandon their traversal and CountWith returns an unspecified
	// partial value — callers that set it must discard the result. Set via
	// CountContext; not exported because a bare partial count is a
	// footgun without the error return that CountContext pairs it with.
	stop *atomic.Bool

	// Stage, when non-nil, receives coarse stage timings: "core.order"
	// for the optional relabeling pass, "core.relayout" for the
	// automatic degree-ordered relayout (first count on a graph only —
	// the twin is cached afterwards) and "core.count" for the count
	// itself. The hook fires at most twice per count — never inside
	// the wedge loops — so a nil hook costs one predictable branch and
	// an installed hook costs a few time.Now calls, keeping disabled
	// tracing invisible on the count benchmarks. The serving layer
	// adapts this to trace spans; core deliberately does not import the
	// tracer.
	Stage func(stage string, d time.Duration)
}

// AutoInvariant picks the family member the paper's Section V
// recommends for g: partition the smaller vertex set, preferring the
// look-ahead member of that family.
func AutoInvariant(g *graph.Bipartite) Invariant {
	if g.NumV2() <= g.NumV1() {
		return Inv2
	}
	return Inv7
}

// Count returns the exact number of butterflies in g using the given
// invariant's sequential algorithm.
func Count(g *graph.Bipartite, inv Invariant) int64 {
	return CountWith(g, Options{Invariant: inv})
}

// CountAuto counts with the automatically selected invariant.
func CountAuto(g *graph.Bipartite) int64 {
	return Count(g, AutoInvariant(g))
}

// CountWith counts butterflies according to opts.
func CountWith(g *graph.Bipartite, opts Options) int64 {
	inv := opts.Invariant
	if inv == 0 {
		inv = AutoInvariant(g)
	}
	if inv < Inv1 || inv > Inv8 {
		panic("core: invalid invariant " + inv.String())
	}
	if opts.Order != graph.OrderNatural {
		if opts.Stage != nil {
			t0 := time.Now()
			g, _, _ = g.Relabel(opts.Order)
			opts.Stage("core.order", time.Since(t0))
		} else {
			g, _, _ = g.Relabel(opts.Order)
		}
	} else if shouldRelayout(g.Profile()) {
		// Count on the cached degree-ordered twin: the scalar count is
		// invariant under relabeling, so the relayout never leaks into
		// results — it only concentrates the kernels' memory traffic
		// (see graph.DegreeOrdered). Explicit Order requests above take
		// precedence; per-vertex and per-edge kernels do their own
		// orientation and never come through here.
		if opts.Stage != nil && !g.HasDegreeOrdered() {
			t0 := time.Now()
			g, _, _ = g.DegreeOrdered()
			opts.Stage("core.relayout", time.Since(t0))
		} else {
			g, _, _ = g.DegreeOrdered()
		}
	}
	threads := opts.Threads
	if threads < 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var t0 time.Time
	if opts.Stage != nil {
		t0 = time.Now()
	}
	var c int64
	switch {
	case threads > 1:
		c = countParallel(g, inv, threads, opts.Arena, opts.stop)
	case opts.BlockSize > 1:
		c = countBlocked(g, inv, opts.BlockSize, opts.Arena, opts.stop)
	default:
		c = countSeq(g, inv, opts.Arena, opts.stop)
	}
	if opts.Stage != nil {
		opts.Stage("core.count", time.Since(t0))
	}
	return c
}

// relayoutSkew and relayoutMinEdges gate the automatic degree-ordered
// relayout: worth an O(|E|) one-time rebuild only when hubs exist to
// concentrate (skew) and the graph is large enough for locality to
// matter.
const (
	relayoutSkew     = 4.0
	relayoutMinEdges = 1 << 12
)

// shouldRelayout reports whether CountWith counts on the cached
// degree-ordered twin (graph.DegreeOrdered) instead of g itself. The
// count is invariant under relabeling, so the relayout is invisible at
// every API surface; it only changes which memory the kernels stream.
func shouldRelayout(p graph.DegreeProfile) bool {
	return p.NumEdges >= relayoutMinEdges &&
		(p.SkewV1 >= relayoutSkew || p.SkewV2 >= relayoutSkew)
}

// CountContext is CountWith with cooperative cancellation: when ctx is
// cancelled (deadline, timeout or explicit cancel) the counting loops
// abandon their traversal at the next checkpoint — every stopStride+1
// exposed vertices sequentially, between schedule units in parallel,
// once per block for the blocked variants — and CountContext returns
// ctx.Err(). Checkpoints are frequent enough that return is prompt
// even on hub-dominated graphs (a schedule unit is bounded by the hub
// spill budget), and no goroutine outlives the call. With a
// never-cancelled context the result and performance are identical to
// CountWith: the fast path adds one nil check per checkpoint.
func CountContext(ctx context.Context, g *graph.Bipartite, opts Options) (int64, error) {
	var c int64
	err := runContext(ctx, func(stop *atomic.Bool) {
		opts.stop = stop
		c = CountWith(g, opts)
	})
	if err != nil {
		return 0, err
	}
	return c, nil
}
