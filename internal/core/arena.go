package core

import (
	"sync"

	"butterfly/internal/bitvec"
)

// workspace bundles the per-worker scratch state of every kernel in this
// package: a wedge accumulator, its touched list, and a bitset used by
// the hybrid intersection kernel. The invariant at rest — maintained by
// every kernel — is that acc is all-zero and touched is empty, so a
// recycled workspace needs no clearing pass.
type workspace struct {
	acc     []int32
	touched []int32
	bits    *bitvec.Vector
}

func newWorkspace(n int) *workspace {
	// touched can hold at most one entry per exposed vertex, so sizing
	// it to the exposed side makes reuse allocation-free.
	return &workspace{acc: make([]int32, n), touched: make([]int32, 0, n)}
}

// ensure grows the workspace to serve an exposed side of n vertices.
// A freshly grown accumulator is zero by construction, so the at-rest
// invariant is preserved.
func (ws *workspace) ensure(n int) {
	if len(ws.acc) < n {
		ws.acc = make([]int32, n)
	}
	if cap(ws.touched) < n {
		ws.touched = make([]int32, 0, n)
	}
	ws.touched = ws.touched[:0]
}

// bitset returns the workspace's scratch bitset resized (and fully
// cleared) to n bits, allocating it on first use.
func (ws *workspace) bitset(n int) *bitvec.Vector {
	if ws.bits == nil {
		ws.bits = bitvec.New(n)
	} else {
		ws.bits.Reset(n)
	}
	return ws.bits
}

// Arena is a pool of kernel workspaces (accumulator + touched list +
// bitset scratch) shared across counting runs. Peeling loops and
// benchmark harnesses perform thousands of counts over same-sized
// graphs; without an arena every round re-allocates O(|V|) scratch,
// which dominates allocation profiles (see BenchmarkTipRoundsArena).
//
// An Arena is safe for concurrent use: parallel workers check
// workspaces out at start-up and return them when the run ends, so a
// single Arena serves every round of a peeling loop regardless of
// thread count. The zero value is ready to use; a nil *Arena is also
// valid and simply allocates fresh workspaces (pooling disabled).
type Arena struct {
	mu   sync.Mutex
	free []*workspace
}

// NewArena returns an empty arena. Workspaces are created on demand and
// sized to the graphs they serve, growing monotonically.
func NewArena() *Arena { return &Arena{} }

// get checks a workspace out of the arena, sized for an exposed side of
// n vertices. On a nil arena it allocates a fresh workspace.
func (a *Arena) get(n int) *workspace {
	if a == nil {
		return newWorkspace(n)
	}
	a.mu.Lock()
	var ws *workspace
	if len(a.free) > 0 {
		ws = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	}
	a.mu.Unlock()
	if ws == nil {
		return newWorkspace(n)
	}
	ws.ensure(n)
	return ws
}

// put returns a workspace to the arena. The caller must have restored
// the at-rest invariant (acc all-zero, touched empty). On a nil arena
// the workspace is simply dropped.
func (a *Arena) put(ws *workspace) {
	if a == nil || ws == nil {
		return
	}
	a.mu.Lock()
	a.free = append(a.free, ws)
	a.mu.Unlock()
}

// Size reports how many workspaces are currently checked in — useful in
// tests asserting that parallel runs return everything they borrow.
func (a *Arena) Size() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}
