package core

import (
	"butterfly/internal/graph"
)

// Counter amortizes accumulator allocation across repeated sequential
// counts — the hot pattern in peeling loops, streaming snapshots and
// benchmark harnesses, where a fresh O(|V|) allocation per count
// dominates small-graph runtimes. The zero value is ready to use; a
// Counter is not safe for concurrent use.
type Counter struct {
	acc     []int32
	touched []int32
}

// NewCounter returns a Counter pre-sized for graphs whose exposed side
// has up to n vertices.
func NewCounter(n int) *Counter {
	return &Counter{acc: make([]int32, n), touched: make([]int32, 0, 1024)}
}

// Count counts butterflies in g with the invariant's sequential
// algorithm, reusing the Counter's buffers. Results are identical to
// core.Count.
func (c *Counter) Count(g *graph.Bipartite, inv Invariant) int64 {
	if inv < Inv1 || inv > Inv8 {
		panic("core: invalid invariant " + inv.String())
	}
	desc, above := inv.geometry()
	exposed, secondary := g.Adj(), g.AdjT()
	if inv.PartitionsV2() {
		exposed, secondary = g.AdjT(), g.Adj()
	}
	if len(c.acc) < exposed.R {
		c.acc = make([]int32, exposed.R)
	}
	// touched can hold at most one entry per exposed vertex, so sizing
	// it to the exposed side makes reuse allocation-free.
	if cap(c.touched) < exposed.R {
		c.touched = make([]int32, 0, exposed.R)
	}
	return countFamily(c.acc, c.touched, exposed, secondary, desc, above, nil)
}

// CountAuto counts with the automatically selected invariant.
func (c *Counter) CountAuto(g *graph.Bipartite) int64 {
	return c.Count(g, AutoInvariant(g))
}
