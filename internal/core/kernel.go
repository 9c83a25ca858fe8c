package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"butterfly/internal/sparse"
)

// This file holds the one wedge traversal behind every exact kernel of
// the package, the worker pool that runs it in parallel, and the
// helper that turns a context into the traversal's stop flag.
//
// Every kernel is the same wedge retrieval — the paper's update (18):
// expose a vertex k, walk its neighbors y, and count every partner
// z ∈ N(y) into the accumulator, acc[z] = β_kz. Only the aggregation
// target differs, and it is applied once per exposed vertex, when the
// accumulator is drained (sweep.finish, one target per kernel):
//
//   - the scalar count: Σ_z C(β_z, 2) (flush);
//   - the per-vertex vector (19): C(β_z, 2) credited to k and, in the
//     half kernel, to z, masked per partner (flushVertex, vertex.go);
//   - the edge supports (25): the β-gather of each incident edge
//     (edgeFinish, edge.go);
//   - the shard wedge partials: the touched partners sorted and
//     emitted as (k, z, β) pairs (emitPairs, partial.go).
//
// Exactness: every path computes the same integer wedge multiplicities
// over the same partner range, so results are bit-identical to the
// sequential reference regardless of tuning or thread count (asserted
// by TestKernelExhaustive3x3 and the quick-check suites).

// accumulate adds to acc the restricted wedges of exposed vertex k
// through its neighbors ys: for every y ∈ ys, each partner z ∈ N(y)
// with z > k (above) or z < k (below) increments acc[z]. Partners seen
// for the first time are appended to touched, which is returned.
func accumulate(acc, touched, ys []int32, secondary *sparse.CSR, k int32, above bool) []int32 {
	for _, y := range ys {
		prow := secondary.Row(int(y))
		if above {
			for _, z := range prow[searchInt32(prow, k+1):] {
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		} else {
			for _, z := range prow {
				if z >= k {
					break
				}
				if acc[z] == 0 {
					touched = append(touched, z)
				}
				acc[z]++
			}
		}
	}
	return touched
}

// target is a sweep's aggregation: what finish does with the drained
// accumulator of exposed vertex k.
type target int

const (
	// toCount sums Σ_z C(β_z, 2), the scalar count (flush).
	toCount target = iota
	// toVertexHalf credits each pair term to k and to the partner —
	// the half kernel, which sees each pair once.
	toVertexHalf
	// toVertexFull credits k alone — the all-partners kernel, whose
	// parallel workers never share an entry of out.
	toVertexFull
	// toEdges writes the supports of k's edges into out (edgeFinish).
	toEdges
	// toPairs appends the sorted (k, z, β_z) pairs to pairs
	// (emitPairs); sequential sweeps only.
	toPairs
)

// sweep is one wedge traversal of the exposed side. Exposed vertex k
// gathers its partners with accumulate — those above k when above is
// set, those below it otherwise, every partner when all is set — and
// finish drains the accumulator into the aggregation target: the
// scalar share it returns, the per-vertex or per-edge vector out, or
// the pair list. Vertices with active[k] false are not exposed, and
// the vertex targets drop inactive partners; a nil active means every
// vertex is active.
type sweep struct {
	exposed, secondary *sparse.CSR
	desc, above, all   bool
	target             target
	active             []bool
	out                []int64
	pairs              []PairCount
}

// finish drains the accumulator of exposed vertex k into the sweep's
// target, leaves the workspace at rest (acc all-zero, touched empty)
// and returns k's scalar share.
func (sw *sweep) finish(ws *workspace, k int) int64 {
	switch sw.target {
	case toCount:
		return flush(ws)
	case toVertexHalf:
		b := flushVertex(ws, sw.active, sw.out)
		sw.out[k] += b
		return b
	case toVertexFull:
		ws.acc[k] = 0 // k is not its own partner
		sw.out[k] = flushVertex(ws, sw.active, nil)
		return sw.out[k]
	case toEdges:
		edgeFinish(sw, ws, k)
		return 0
	default: // toPairs
		sw.pairs = emitPairs(sw.pairs, ws, k)
		return 0
	}
}

// gather accumulates the wedges of exposed vertex k through the
// neighbor list ys: all of k's row, or one segment of a split hub. An
// all-partners sweep gathers in one pass bounded by no vertex
// (partners below MaxInt32, so no per-row search), which also gathers
// k's own entry acc[k] = |ys|: the edge target uses it as equation
// (25)'s degree term, the vertex target drops it, and the tip delta
// skips it because k is no longer alive.
func (sw *sweep) gather(ws *workspace, k int, ys []int32) {
	if sw.all {
		ws.touched = accumulate(ws.acc, ws.touched, ys, sw.secondary, math.MaxInt32, false)
		return
	}
	ws.touched = accumulate(ws.acc, ws.touched, ys, sw.secondary, int32(k), sw.above)
}

// stopStride masks the traversal index for cancellation polls: a
// checkpoint every 256 exposed vertices keeps the poll off the hot
// wedge loop while bounding abort latency to a few hundred rows.
const stopStride = 0xFF

// run sweeps traversal indices [lo, hi) — index i exposes vertex i, or
// n−1−i when desc is set — and returns the sum of the finish shares.
// A non-nil stop flag is polled every stopStride+1 indices, at an
// iteration boundary where the workspace is at rest, so an aborted
// sweep still hands a clean workspace back to the arena; its partial
// result is unspecified and must be discarded.
func (sw *sweep) run(ws *workspace, lo, hi int, stop *atomic.Bool) int64 {
	n := sw.exposed.R
	var total int64
	for idx := lo; idx < hi; idx++ {
		if idx&stopStride == 0 && stopped(stop) {
			break
		}
		k := idx
		if sw.desc {
			k = n - 1 - idx
		}
		if sw.active != nil && !sw.active[k] {
			continue
		}
		sw.gather(ws, k, sw.exposed.Row(k))
		total += sw.finish(ws, k)
	}
	return total
}

// seq runs the whole sweep on one workspace checked out of a.
func (sw *sweep) seq(a *Arena, stop *atomic.Bool) int64 {
	ws := a.get(sw.exposed.R)
	defer a.put(ws)
	return sw.run(ws, 0, sw.exposed.R, stop)
}

// hubPair is one (partner, wedge-count) export of a split hub segment.
type hubPair struct {
	z int32
	c int32
}

// par runs the sweep on a work-weighted schedule (sched.go) with up to
// threads workers. Chunk units sweep whole vertices. The segments of a
// split hub export their partial wedge counts instead; C(β, 2) is not
// additive across segments, so a second pool merges each hub's
// partials after the barrier — reconstructing the exact β a single
// gather would have produced — and only then applies finish. The
// sweep is taken by value so that only a parallel run, whose workers
// share it, moves it to the heap.
func (sw sweep) par(sched *schedule, threads int, a *Arena, stop *atomic.Bool) int64 {
	// parts[i][s] holds segment s of spill i, written by exactly one
	// unit and read after the first pool's barrier.
	parts := make([][][]hubPair, len(sched.spills))
	for i, sp := range sched.spills {
		parts[i] = make([][]hubPair, sp.segs)
	}
	var total atomic.Int64
	n := sw.exposed.R
	runPool(threads, len(sched.units), a, n, stop, func(ws *workspace, i int) {
		u := &sched.units[i]
		if u.kind == unitChunk {
			total.Add(sw.run(ws, u.lo, u.hi, stop))
			return
		}
		sw.gather(ws, u.hub, sw.exposed.Row(u.hub)[u.lo:u.hi])
		seg := make([]hubPair, len(ws.touched))
		for j, z := range ws.touched {
			seg[j] = hubPair{z: z, c: ws.acc[z]}
			ws.acc[z] = 0
		}
		ws.touched = ws.touched[:0]
		parts[u.spill][u.seg] = seg
	})
	// A stop raised during the first pool also stops this one before
	// it claims a unit, so missing segments are never merged.
	runPool(threads, len(parts), a, n, stop, func(ws *workspace, i int) {
		for _, seg := range parts[i] {
			for _, p := range seg {
				if ws.acc[p.z] == 0 {
					ws.touched = append(ws.touched, p.z)
				}
				ws.acc[p.z] += p.c
			}
		}
		total.Add(sw.finish(ws, sched.spills[i].k))
	})
	return total.Load()
}

// runPool is the package's one worker pool: up to threads workers
// claim unit indices [0, units) from an atomic cursor and run body on
// each with a private workspace (sized for wsN exposed vertices)
// checked out of a. A non-nil stop flag is polled before every claim;
// once raised, workers stop claiming, so the pool drains within one
// unit per worker.
func runPool(threads, units int, a *Arena, wsN int, stop *atomic.Bool, body func(ws *workspace, i int)) {
	if threads > units {
		threads = units
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := a.get(wsN)
			defer a.put(ws)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= units || stopped(stop) {
					return
				}
				body(ws, i)
			}
		}()
	}
	wg.Wait()
}

// stopped reports whether the stop flag has been raised. The nil check
// is inlined at every checkpoint; the atomic load only happens for
// cancellable runs.
func stopped(stop *atomic.Bool) bool { return stop != nil && stop.Load() }

// runContext is the one way a context reaches the kernels: it runs
// kernel with a stop flag that context.AfterFunc raises once ctx is
// done, and returns ctx.Err() if the context ended before the kernel
// returned — the kernel's partial result must then be discarded. A
// context that can never be cancelled passes a nil flag, so the kernel
// pays one nil check per checkpoint and no goroutine or allocation.
func runContext(ctx context.Context, kernel func(stop *atomic.Bool)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		kernel(nil)
		return nil
	}
	var stop atomic.Bool
	defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	kernel(&stop)
	return ctx.Err()
}

// flush is the scalar count's finish: Σ_z C(β_z, 2) over the touched
// partners, resetting them.
func flush(ws *workspace) int64 {
	acc, touched := ws.acc, ws.touched
	var t int64
	for _, z := range touched {
		c := int64(acc[z])
		t += c * (c - 1) / 2
		acc[z] = 0
	}
	ws.touched = touched[:0]
	return t
}
