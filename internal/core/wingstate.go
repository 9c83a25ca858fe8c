package core

// WingPeelState: the compacted alive-adjacency structure behind the
// incremental wing-peeling engine's hot path.
//
// A sweep over the static CSR rows would make each dying edge pay
// O(deg u + Σ deg w) over *original* degrees even when almost
// everything is already peeled — late in a decomposition the rows are
// graveyards and the sweep is mostly skip-work. This structure removes
// the graveyards: every exposed row and every secondary
// (transpose) row is kept compacted to its still-present edges by
// O(1) swap-deletion, so a dying edge's sweep costs O(deg⁺ u + Σ deg⁺ w)
// over the *surviving* degrees. Total engine work then genuinely tracks
// the butterflies destroyed plus the surviving adjacency actually
// inspected, which is what makes the delta engine scale on deep
// peeling hierarchies.
//
// Compaction gives up sorted rows, so the sweep always resolves
// N(u) ∩ N(w) through the workspace position map: u's neighbors are
// written into the accumulator once, and each partner row is resolved
// by direct lookups, which tolerate unsorted rows.
//
// Concurrency contract: rows are immutable during a round — workers of
// StateDeltaBatch only read them — and RemoveEdge is called by the
// engine between rounds, after the batch kernel returned.

import (
	"sync"
	"sync/atomic"

	"butterfly/internal/graph"
)

// WingPeelState holds both adjacency directions compacted to the edges
// that are still present (alive, or dying in the current round until
// RemoveEdge is called). Edge identities are flat indices into g.Adj(),
// as everywhere else in the peeling stack.
type WingPeelState struct {
	// Exposed rows: segment u is rcol/reid[rstart[u] : rstart[u]+rlen[u]].
	rstart []int64
	rlen   []int32
	rcol   []int32 // secondary endpoint of the edge
	reid   []int64 // flat edge id
	rpos   []int32 // edge id -> index within its row segment

	// Secondary (transpose) rows, same layout.
	tstart []int64
	tlen   []int32
	tcol   []int32 // exposed endpoint of the edge
	teid   []int64
	tpos   []int32

	edgeU []int32 // flat edge id -> exposed endpoint
	edgeV []int32 // flat edge id -> secondary endpoint

	nsec int // secondary side size (workspace accumulator width)
}

// NewWingPeelState builds the compacted structure with every edge
// present, in O(nnz).
func NewWingPeelState(g *graph.Bipartite) *WingPeelState {
	adj, adjT := g.Adj(), g.AdjT()
	nnz := int(adj.NNZ())
	s := &WingPeelState{
		rstart: adj.Ptr,
		rlen:   make([]int32, adj.R),
		rcol:   make([]int32, nnz),
		reid:   make([]int64, nnz),
		rpos:   make([]int32, nnz),
		tstart: adjT.Ptr,
		tlen:   make([]int32, adjT.R),
		tcol:   make([]int32, nnz),
		teid:   make([]int64, nnz),
		tpos:   make([]int32, nnz),
		edgeU:  make([]int32, nnz),
		edgeV:  make([]int32, nnz),
		nsec:   adj.C,
	}
	copy(s.rcol, adj.Col)
	for u := 0; u < adj.R; u++ {
		base := adj.Ptr[u]
		end := adj.Ptr[u+1]
		s.rlen[u] = int32(end - base)
		for k := base; k < end; k++ {
			s.reid[k] = k
			s.rpos[k] = int32(k - base)
			s.edgeU[k] = int32(u)
			s.edgeV[k] = adj.Col[k]
		}
	}
	copy(s.tcol, adjT.Col)
	tmap := TransposeEdgeMap(g)
	for v := 0; v < adjT.R; v++ {
		base := adjT.Ptr[v]
		end := adjT.Ptr[v+1]
		s.tlen[v] = int32(end - base)
		for j := base; j < end; j++ {
			e := tmap[j]
			s.teid[j] = e
			s.tpos[e] = int32(j - base)
		}
	}
	return s
}

// Present reports whether edge e is still in the structure (alive or
// dying in the current round). Mostly for tests.
func (s *WingPeelState) Present(e int64) bool {
	u := s.edgeU[e]
	i := s.rstart[u] + int64(s.rpos[e])
	return int64(s.rpos[e]) < int64(s.rlen[u]) && s.reid[i] == e
}

// RemoveEdge deletes edge e from both directions by swap-deletion in
// O(1). The engine calls it for every batch edge after the round's
// delta kernel returned; removing an edge twice is a bug.
func (s *WingPeelState) RemoveEdge(e int64) {
	u, v := s.edgeU[e], s.edgeV[e]
	// Exposed row.
	base := s.rstart[u]
	last := base + int64(s.rlen[u]) - 1
	i := base + int64(s.rpos[e])
	s.rcol[i] = s.rcol[last]
	s.reid[i] = s.reid[last]
	s.rpos[s.reid[i]] = int32(i - base)
	s.rlen[u]--
	// Transpose row.
	base = s.tstart[v]
	last = base + int64(s.tlen[v]) - 1
	i = base + int64(s.tpos[e])
	s.tcol[i] = s.tcol[last]
	s.teid[i] = s.teid[last]
	s.tpos[s.teid[i]] = int32(i - base)
	s.tlen[v]--
}

// row returns the compacted exposed row of u: parallel slices of
// secondary endpoints and edge ids.
func (s *WingPeelState) row(u int32) ([]int32, []int64) {
	b, l := s.rstart[u], int64(s.rlen[u])
	return s.rcol[b : b+l], s.reid[b : b+l]
}

// trow returns the compacted secondary row of v: parallel slices of
// exposed endpoints and edge ids.
func (s *WingPeelState) trow(v int32) ([]int32, []int64) {
	b, l := s.tstart[v], int64(s.tlen[v])
	return s.tcol[b : b+l], s.teid[b : b+l]
}

// WingStateDeltaBatch decrements sup for every surviving edge that lost
// butterflies to the batch, using the minimum-batch-id assignment rule
// (delta.go); its sweeps touch only present edges. The caller must have
// inBatch[e] = true for every batch edge (present in s, not yet
// removed) and clears it — and calls s.RemoveEdge — after the kernel
// returns. alive is the
// engine's liveness array (false for batch edges already), used only
// to guard decrements. First-touched edges are appended to *touched
// once via dirty, as in TipDeltaBatch.
func WingStateDeltaBatch(s *WingPeelState, batch []int64, alive, inBatch []bool, sup []int64, dirty []int32, touched *[]int64, threads int, a *Arena) {
	if len(batch) == 0 {
		return
	}
	if threads > len(batch) {
		threads = len(batch)
	}
	if threads <= 1 || len(batch) < minDeltaParallelBatch {
		ws := a.get(s.nsec)
		for _, e := range batch {
			wingStateEdge(s, e, inBatch, alive, sup, dirty, touched, nil, ws)
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
			ws := a.get(s.nsec)
			defer a.put(ws)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(batch) {
					break
				}
				wingStateEdge(s, batch[i], inBatch, alive, sup, dirty, touched, &mu, ws)
			}
		}()
	}
	wg.Wait()
}

// wingStateEdge enumerates the butterflies assigned to dying edge e
// over the compacted rows. Every edge it sees is present — alive or in
// this round's batch — so the only filtering left is the assignment
// rule. mu == nil selects the sequential decrement path.
func wingStateEdge(s *WingPeelState, e int64, inBatch, alive []bool, sup []int64, dirty []int32, touched *[]int64, mu *sync.Mutex, ws *workspace) {
	u, v := s.edgeU[e], s.edgeV[e]
	ucols, ueids := s.row(u)
	acc := ws.acc
	for k, p := range ucols {
		acc[p] = int32(k) + 1
	}
	wcols, weids := s.trow(v)
	for wi, w := range wcols {
		if w == u {
			continue
		}
		ewv := weids[wi]
		if inBatch[ewv] && ewv < e {
			continue // assigned to a smaller-id batch edge
		}
		pcols, peids := s.row(w)
		for pi, p := range pcols {
			if p == v {
				continue
			}
			pu := acc[p]
			if pu == 0 {
				continue
			}
			eup := ueids[pu-1]
			ewp := peids[pi]
			if inBatch[eup] && eup < e {
				continue
			}
			if inBatch[ewp] && ewp < e {
				continue
			}
			if mu == nil {
				if alive[ewv] {
					wingDecSeq(ewv, sup, dirty, touched)
				}
				if alive[eup] {
					wingDecSeq(eup, sup, dirty, touched)
				}
				if alive[ewp] {
					wingDecSeq(ewp, sup, dirty, touched)
				}
			} else {
				if alive[ewv] {
					wingDecAtomic(ewv, sup, dirty, touched, mu)
				}
				if alive[eup] {
					wingDecAtomic(eup, sup, dirty, touched, mu)
				}
				if alive[ewp] {
					wingDecAtomic(ewp, sup, dirty, touched, mu)
				}
			}
		}
	}
	for _, p := range ucols {
		acc[p] = 0
	}
}
