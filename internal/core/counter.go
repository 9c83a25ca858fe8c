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
	ws workspace
}

// NewCounter returns a Counter pre-sized for graphs whose exposed side
// has up to n vertices.
func NewCounter(n int) *Counter {
	return &Counter{ws: *newWorkspace(n)}
}

// Count counts butterflies in g with the invariant's sequential
// algorithm, reusing the Counter's buffers. Results are identical to
// core.Count.
func (c *Counter) Count(g *graph.Bipartite, inv Invariant) int64 {
	if inv < Inv1 || inv > Inv8 {
		panic("core: invalid invariant " + inv.String())
	}
	sw := countSweep(g, inv)
	c.ws.ensure(sw.exposed.R)
	return sw.run(&c.ws, 0, sw.exposed.R, nil)
}

// CountAuto counts with the automatically selected invariant.
func (c *Counter) CountAuto(g *graph.Bipartite) int64 {
	return c.Count(g, AutoInvariant(g))
}
