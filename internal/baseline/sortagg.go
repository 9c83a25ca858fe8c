package baseline

import (
	"context"
	"sort"
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// CountSortAggregate counts butterflies with the sort-based wedge
// aggregation of ParButterfly (Shi & Shun [12]): materialize every
// wedge as its endpoint pair, sort the pair list, and sum C(run, 2)
// over equal runs. Compared with hashing (CountWedgeHash) the working
// set is a flat array and the aggregation is a single sorted scan —
// the structure that parallelizes well; compared with the paper's
// loop invariants it pays O(W) memory for the wedge list.
//
// threads > 1 sorts and scans chunks concurrently (a merge-free
// partition by leading endpoint).
func CountSortAggregate(g *graph.Bipartite, threads int) int64 {
	m := g.NumV1()
	// Wedges with endpoints in V1: one entry per (u1 < u2) pair per
	// shared neighbor.
	var wedges []int64
	for v := 0; v < g.NumV2(); v++ {
		nbrs := g.NeighborsOfV2(v)
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				wedges = append(wedges, int64(nbrs[x])*int64(m)+int64(nbrs[y]))
			}
		}
	}
	if len(wedges) == 0 {
		return 0
	}
	if threads <= 1 {
		sort.Slice(wedges, func(a, b int) bool { return wedges[a] < wedges[b] })
		return sumRuns(wedges)
	}

	// Parallel path: bucket wedges by leading endpoint range so each
	// bucket's runs are self-contained, then sort/scan buckets
	// concurrently.
	buckets := make([][]int64, threads)
	span := (int64(m)*int64(m) + int64(threads) - 1) / int64(threads)
	for _, w := range wedges {
		b := int(w / span)
		if b >= threads {
			b = threads - 1
		}
		buckets[b] = append(buckets[b], w)
	}
	var (
		wg    sync.WaitGroup
		total int64
		mu    sync.Mutex
	)
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(b []int64) {
			defer wg.Done()
			sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
			t := sumRuns(b)
			mu.Lock()
			total += t
			mu.Unlock()
		}(bucket)
	}
	wg.Wait()
	return total
}

// sumRuns sums C(runLength, 2) over equal runs of a sorted slice.
func sumRuns(sorted []int64) int64 {
	var total int64
	run := int64(1)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			run++
			continue
		}
		total += run * (run - 1) / 2
		run = 1
	}
	total += run * (run - 1) / 2
	return total
}

// EstimateSparsify approximates ΞG by graph sparsification
// (Sanei-Mehri et al. [10]'s ESpar): keep each edge independently with
// probability p, count the sparsified graph exactly, and scale by
// 1/p⁴ — a butterfly survives iff all four edges do. Unbiased;
// variance grows as p shrinks. Deterministic given seed.
func EstimateSparsify(g *graph.Bipartite, p float64, seed int64) float64 {
	est, _ := EstimateSparsifyContext(context.Background(), g, p, seed)
	return est
}

// EstimateSparsifyContext is EstimateSparsify with cooperative
// cancellation: the sparsified graph is counted with core.CountContext,
// and a done context ends the call with ctx.Err().
func EstimateSparsifyContext(ctx context.Context, g *graph.Bipartite, p float64, seed int64) (float64, error) {
	c, err := core.CountContext(ctx, Sparsify(g, p, seed), core.Options{})
	if err != nil {
		return 0, err
	}
	return float64(c) / (p * p * p * p), nil
}

// Sparsify returns the sparsified graph EstimateSparsify counts: each
// edge of g kept independently with probability p, deterministically
// given seed; p = 1 returns g itself.
func Sparsify(g *graph.Bipartite, p float64, seed int64) *graph.Bipartite {
	if p <= 0 || p > 1 {
		panic("baseline: sparsification probability must be in (0,1]")
	}
	if p == 1 {
		return g
	}
	rng := newSplitMix(seed)
	b := graph.NewBuilder(g.NumV1(), g.NumV2())
	for u := 0; u < g.NumV1(); u++ {
		for _, v := range g.NeighborsOfV1(u) {
			if rng.float64() < p {
				b.AddEdge(u, int(v))
			}
		}
	}
	return b.Build()
}

// splitMix is a tiny deterministic PRNG (SplitMix64) so sparsification
// does not share math/rand global state.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{s: uint64(seed)*2654435769 + 1} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
