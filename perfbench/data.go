package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"butterfly"
	"butterfly/internal/core"
	"butterfly/internal/graph"
)

// paperOracle is the exact butterfly count of each Fig 9 stand-in at
// paper scale (scale 1). Relabeling preserves the count, so every
// seed's permutation must reproduce these numbers. The table was
// cross-checked against the independent vertex-priority counter
// (AlgorithmVertexPriority) when it was written; TestOracleTable
// repeats that check.
var paperOracle = map[string]int64{
	"arxiv-cond-mat": 129789,
	"producers":      106112,
	"record-labels":  373311,
	"occupations":    823828,
	"github":         13869589,
}

// standIn is one generated, relabeled dataset: the retained edge list
// from which fresh graphs are built.
type standIn struct {
	name  string
	m, n  int
	edges [][2]int
}

// makeStandIn generates the named stand-in and applies a random
// permutation of the V1 labels and an independent one of the V2
// labels, both drawn from seed. The permutation keeps natural-order
// layout from flattering the kernels. genDur is the time spent in the
// generator alone.
func makeStandIn(name string, scale int, seed int64) (s standIn, genDur time.Duration, err error) {
	t0 := time.Now()
	g, err := butterfly.GeneratePaperDataset(name, scale)
	genDur = time.Since(t0)
	if err != nil {
		return standIn{}, genDur, fmt.Errorf("generate %s: %w", name, err)
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	m, n := g.NumV1(), g.NumV2()
	p1, p2 := rng.Perm(m), rng.Perm(n)
	edges := g.Edges()
	for i, e := range edges {
		edges[i] = [2]int{p1[e[0]], p2[e[1]]}
	}
	return standIn{name: name, m: m, n: n, edges: edges}, genDur, nil
}

// build makes a fresh *Graph from the retained edge list.
func (s standIn) build() (*butterfly.Graph, error) {
	return butterfly.FromEdges(s.m, s.n, s.edges)
}

// wedges is the kernel's work on the graph as passed: the wedge steps
// core.WorkPerVertex assigns to the invariant the paper's selection
// rule picks (AutoInvariant). It depends only on the edge set, so it
// repeats exactly for a seed.
func (s standIn) wedges() int64 {
	es := make([]graph.Edge, len(s.edges))
	for i, e := range s.edges {
		es[i] = graph.Edge{U: int32(e[0]), V: int32(e[1])}
	}
	g := graph.FromEdges(s.m, s.n, es)
	var w int64
	for _, x := range core.WorkPerVertex(g, core.AutoInvariant(g)) {
		w += x
	}
	return w
}

// edgeSet mirrors a mutable edge set: membership plus a dense list for
// uniform sampling of present edges.
type edgeSet struct {
	m, n int
	pos  map[[2]int]int
	list [][2]int
}

func newEdgeSet(m, n int, edges [][2]int) *edgeSet {
	s := &edgeSet{m: m, n: n, pos: make(map[[2]int]int, len(edges)), list: make([][2]int, 0, len(edges))}
	for _, e := range edges {
		s.add(e)
	}
	return s
}

func (s *edgeSet) add(e [2]int) {
	if _, ok := s.pos[e]; ok {
		return
	}
	s.pos[e] = len(s.list)
	s.list = append(s.list, e)
}

func (s *edgeSet) remove(e [2]int) {
	i, ok := s.pos[e]
	if !ok {
		return
	}
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.pos[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, e)
}

// batch draws k distinct absent edges to insert and k distinct present
// edges to delete, so applying it keeps |E| fixed and changes the edge
// set. The two halves are disjoint by construction.
func (s *edgeSet) batch(rng *rand.Rand, k int) (inserts, deletes [][2]int) {
	picked := make(map[[2]int]bool, 2*k)
	for len(inserts) < k {
		e := [2]int{rng.Intn(s.m), rng.Intn(s.n)}
		if _, present := s.pos[e]; present || picked[e] {
			continue
		}
		picked[e] = true
		inserts = append(inserts, e)
	}
	for len(deletes) < k {
		e := s.list[rng.Intn(len(s.list))]
		if picked[e] {
			continue
		}
		picked[e] = true
		deletes = append(deletes, e)
	}
	return inserts, deletes
}

func (s *edgeSet) apply(inserts, deletes [][2]int) {
	for _, e := range inserts {
		s.add(e)
	}
	for _, e := range deletes {
		s.remove(e)
	}
}
