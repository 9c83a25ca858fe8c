package core

// Wedge-delta kernels for incremental peeling (ParButterfly-style
// bucketed decomposition; Shi & Shun [12], Wang et al. [13]).
//
// Round-synchronous peeling recomputes every surviving support from
// scratch each round — O(wedges of the surviving subgraph) per level.
// The kernels here invert that: given the batch peeled this round, they
// compute the exact support *decrements* of the affected neighbors only,
// so total decomposition cost is proportional to the butterflies
// destroyed rather than levels × wedges.
//
// Exactness (asserted by the quick-check suites in delta_test.go and
// internal/peel):
//
//   - Tip: removing an exposed-side batch B never changes the wedge
//     multiplicity β_uw between two surviving exposed vertices (only
//     exposed vertices leave; every secondary vertex and surviving edge
//     stays). A survivor w therefore loses exactly
//     Σ_{u∈B} C(β_uw, 2) butterflies — the pair terms it shared with
//     the batch — and nothing else.
//   - Wing (WingStateDeltaBatch, wingstate.go): a butterfly
//     {u,w} × {v,p} is destroyed by the batch iff at least one of its
//     four edges is in the batch and none was dead before the batch.
//     Each destroyed butterfly decrements the support of each of its
//     surviving edges by exactly 1. To count every destroyed butterfly
//     exactly once under parallel execution, the butterfly is
//     "assigned" to its minimum-id batch edge: the sweep from batch
//     edge e skips any butterfly that also contains a batch edge with a
//     smaller flat id. The rule is order-free, so workers can process
//     batch edges concurrently with atomic decrements.
//
// Both kernels draw scratch from a core.Arena and append first-touched
// ids to a caller-owned buffer (deduplicated through a caller-owned
// dirty-mark array), so steady-state peeling rounds allocate nothing on
// the sequential path (TestTipDeltaSteadyStateZeroAlloc /
// TestWingStateDeltaSteadyStateZeroAlloc).

import (
	"sync"
	"sync/atomic"

	"butterfly/internal/graph"
	"butterfly/internal/sparse"
)

// minDeltaParallelBatch is the smallest peeled batch worth fanning out
// to worker goroutines; below it the spawn cost dominates the wedge
// work and the kernels fall back to the sequential path.
const minDeltaParallelBatch = 8

// TipDeltaBatch subtracts from s the butterflies each still-alive
// vertex of the chosen side lost when batch was peeled. alive must
// already be false for every batch member (and every vertex peeled in
// earlier rounds); s is indexed by side vertex. Every vertex whose
// count actually decreased is appended exactly once to *touched, using
// dirty (an all-zero int32 array of the side's length) for
// deduplication; the caller must clear the marks of the returned ids
// before the next round. With threads > 1 the batch is processed by
// worker goroutines using atomic decrements; results are identical to
// the sequential path (the decrement multiset is the same).
func TipDeltaBatch(g *graph.Bipartite, side Side, batch []int32, alive []bool, s []int64, dirty []int32, touched *[]int32, threads int, a *Arena) {
	if len(batch) == 0 {
		return
	}
	exposed, secondary := vertexOrient(g, side)
	if threads > len(batch) {
		threads = len(batch)
	}
	if threads <= 1 || len(batch) < minDeltaParallelBatch {
		ws := a.get(exposed.R)
		for _, u := range batch {
			partners := tipDeltaWedges(int(u), exposed, secondary, alive, ws)
			acc := ws.acc
			for _, w := range partners {
				c := int64(acc[w])
				acc[w] = 0
				if b := c * (c - 1) / 2; b > 0 {
					s[w] -= b
					if dirty[w] == 0 {
						dirty[w] = 1
						*touched = append(*touched, w)
					}
				}
			}
			ws.touched = ws.touched[:0]
		}
		a.put(ws)
		return
	}

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := a.get(exposed.R)
			defer a.put(ws)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(batch) {
					break
				}
				partners := tipDeltaWedges(int(batch[i]), exposed, secondary, alive, ws)
				acc := ws.acc
				for _, w := range partners {
					c := int64(acc[w])
					acc[w] = 0
					if b := c * (c - 1) / 2; b > 0 {
						atomic.AddInt64(&s[w], -b)
						if atomic.CompareAndSwapInt32(&dirty[w], 0, 1) {
							mu.Lock()
							*touched = append(*touched, w)
							mu.Unlock()
						}
					}
				}
				ws.touched = ws.touched[:0]
			}
		}()
	}
	wg.Wait()
}

// tipDeltaWedges accumulates the wedge multiplicities β_uw of peeled
// vertex u against every still-alive partner w into ws.acc and returns
// the touched partner list. The caller consumes and re-zeroes the
// accumulator (restoring the workspace's at-rest invariant). u itself
// is never a partner because alive[u] is already false.
func tipDeltaWedges(u int, exposed, secondary *sparse.CSR, alive []bool, ws *workspace) []int32 {
	acc := ws.acc
	partners := ws.touched[:0]
	for _, y := range exposed.Row(u) {
		for _, w := range secondary.Row(int(y)) {
			if !alive[w] {
				continue
			}
			if acc[w] == 0 {
				partners = append(partners, w)
			}
			acc[w]++
		}
	}
	ws.touched = partners
	return partners
}

// TransposeEdgeMap returns tmap with tmap[j] equal to the flat edge id
// in g.Adj() of the edge stored at flat position j of g.AdjT(). Built
// in O(nnz); NewWingPeelState uses it to resolve (w, v) edge ids
// without per-wedge binary searches.
func TransposeEdgeMap(g *graph.Bipartite) []int64 {
	adj, adjT := g.Adj(), g.AdjT()
	tmap := make([]int64, adj.NNZ())
	next := make([]int64, adjT.R)
	copy(next, adjT.Ptr[:adjT.R])
	for u := 0; u < adj.R; u++ {
		for k := adj.Ptr[u]; k < adj.Ptr[u+1]; k++ {
			v := adj.Col[k]
			tmap[next[v]] = k
			next[v]++
		}
	}
	return tmap
}

// wingDecSeq and wingDecAtomic decrement the support of surviving edge
// f and record its first touch, sequentially or under concurrent
// workers.
func wingDecSeq(f int64, sup []int64, dirty []int32, touched *[]int64) {
	sup[f]--
	if dirty[f] == 0 {
		dirty[f] = 1
		*touched = append(*touched, f)
	}
}

func wingDecAtomic(f int64, sup []int64, dirty []int32, touched *[]int64, mu *sync.Mutex) {
	atomic.AddInt64(&sup[f], -1)
	if atomic.CompareAndSwapInt32(&dirty[f], 0, 1) {
		mu.Lock()
		*touched = append(*touched, f)
		mu.Unlock()
	}
}
