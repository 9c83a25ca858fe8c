package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"butterfly"
	"butterfly/internal/serve"
	"butterfly/serveapi"
)

const (
	// mutateGraph is the stand-in serve-mutate writes to: the largest
	// one.
	mutateGraph = "github"
	// batchHalf is the number of inserts per mutation batch; each
	// batch also deletes as many present edges.
	batchHalf = 32
	// mutateTailQ is serve-mutate's reported tail percentile: the
	// highest with about ten of a run's write cycles beyond it.
	mutateTailQ = 0.75
)

func classifyMutate(path string) string {
	switch {
	case strings.HasSuffix(path, "/mutate"):
		return "mutate"
	case strings.HasSuffix(path, "/count"):
		return "count"
	}
	return ""
}

// mutateState is the served graph and the benchmark's own mirror of
// its edge set.
type mutateState struct {
	sv        *server
	mirror    *edgeSet
	version   uint64
	genS      float64
	registerS float64
	bodyMB    float64
	wedges    int64
}

func setupMutate(cfg config, out *outcome) (*mutateState, error) {
	s, gd, err := makeStandIn(mutateGraph, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	m := &mutateState{mirror: newEdgeSet(s.m, s.n, s.edges), version: 1, genS: sec(gd)}
	if cfg.trace {
		m.wedges = s.wedges()
	}
	if m.sv, err = startServer(classifyMutate); err != nil {
		return nil, err
	}
	d, c, size, err := m.sv.register(s)
	if err != nil {
		m.sv.close()
		return nil, err
	}
	m.registerS, m.bodyMB = sec(d), float64(size)/(1<<20)
	out.check(c == cfg.oracle[s.name], "register %s: %d butterflies, expected %d", s.name, c, cfg.oracle[s.name])
	return m, nil
}

// libMirror replays every batch through the library layers the server
// uses, timing each call: the dynamic counter, its snapshot, a cold
// count of the snapshot, and a registry of its own.
type libMirror struct {
	dyn                        *butterfly.DynamicCounter
	reg                        *serve.Registry
	buildS, seedS              float64
	applyMS, snapMS, regMS     []float64
	relayoutS, countS, allocMB []float64
}

func newLibMirror(es *edgeSet) (*libMirror, error) {
	l := &libMirror{reg: serve.NewRegistry()}
	t0 := time.Now()
	g, err := butterfly.FromEdges(es.m, es.n, es.list)
	if err != nil {
		return nil, err
	}
	l.buildS = sec(time.Since(t0))
	t0 = time.Now()
	l.dyn = butterfly.NewDynamicCounterFromGraph(g)
	l.seedS = sec(time.Since(t0))
	if _, err := l.reg.Register(mutateGraph, g, false); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *libMirror) apply(inserts, deletes [][2]int, want int64, out *outcome) error {
	t0 := time.Now()
	for _, e := range inserts {
		if _, _, err := l.dyn.InsertEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	for _, e := range deletes {
		if _, _, err := l.dyn.DeleteEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	l.applyMS = append(l.applyMS, ms(time.Since(t0)))
	t0 = time.Now()
	snap := l.dyn.Snapshot()
	l.snapMS = append(l.snapMS, ms(time.Since(t0)))

	var relayout, count time.Duration
	opts := butterfly.CountOptions{Stage: func(stage string, d time.Duration) {
		switch stage {
		case "core.relayout":
			relayout += d
		case "core.count":
			count += d
		}
	}}
	var c int64
	var err error
	l.allocMB = append(l.allocMB, allocMB(func() { c, err = snap.CountWithContext(context.Background(), opts) }))
	if err != nil {
		return err
	}
	l.relayoutS = append(l.relayoutS, sec(relayout))
	l.countS = append(l.countS, sec(count))
	out.check(c == want && l.dyn.Count() == want, "library replay: count %d, dynamic %d, server %d", c, l.dyn.Count(), want)

	t0 = time.Now()
	res, err := l.reg.Mutate(mutateGraph, inserts, deletes)
	l.regMS = append(l.regMS, ms(time.Since(t0)))
	if err != nil {
		return err
	}
	out.check(res.Count == want, "registry replay: count %d, server %d", res.Count, want)
	return nil
}

// mutatePhase is what one closed-loop phase measured.
type mutatePhase struct {
	ack, fresh []float64 // ms from batch sent
	tally      httpCounters
}

// writeLoop runs write cycles for d: send a batch, wait for the ack,
// then count at the new version. Every ack must apply the whole batch
// at the next version, and the fresh count must equal the ack's.
// It stops early, with the failure counted, if the server refuses a
// request, since the mirror no longer matches.
func (m *mutateState) writeLoop(d time.Duration, rng *rand.Rand, lib *libMirror, out *outcome) (*mutatePhase, error) {
	ph := &mutatePhase{}
	countPath := "/v1/graphs/" + mutateGraph + "/count"
	mutatePath := "/v1/graphs/" + mutateGraph + "/mutate"
	for end, first := time.Now().Add(d), true; first || time.Now().Before(end); first = false {
		ins, del := m.mirror.batch(rng, batchHalf)
		body, err := json.Marshal(serveapi.MutateRequest{Inserts: ins, Deletes: del})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ack, err := m.sv.do("POST", mutatePath, body)
		tAck := time.Since(t0)
		var mr serveapi.MutateResponse
		if !out.check(err == nil && ack.status == http.StatusOK && json.Unmarshal(ack.body, &mr) == nil,
			"mutate: HTTP %d %s %v", ack.status, ack.body, err) {
			return ph, nil
		}
		t1 := time.Now()
		cnt, err := m.sv.do("POST", countPath, []byte("{}"))
		tFresh := time.Since(t0)
		var cr serveapi.CountResponse
		if !out.check(err == nil && cnt.status == http.StatusOK && json.Unmarshal(cnt.body, &cr) == nil,
			"count: HTTP %d %s %v", cnt.status, cnt.body, err) {
			return ph, nil
		}
		ph.tally.note(tAck, ack.cache)
		ph.tally.note(time.Since(t1), cnt.cache)
		m.mirror.apply(ins, del)
		if out.check(mr.Version == m.version+1 && mr.Inserted == batchHalf && mr.Deleted == batchHalf &&
			cr.Version == mr.Version && cr.Butterflies == mr.Count,
			"cycle at v%d: ack v%d +%d -%d count %d; fresh v%d count %d", m.version, mr.Version, mr.Inserted, mr.Deleted, mr.Count, cr.Version, cr.Butterflies) {
			ph.ack = append(ph.ack, ms(tAck))
			ph.fresh = append(ph.fresh, ms(tFresh))
		}
		m.version = mr.Version
		if lib != nil {
			if err := lib.apply(ins, del, mr.Count, out); err != nil {
				return nil, err
			}
		}
	}
	return ph, nil
}

// finalCheck recounts the benchmark's own edge-set mirror with the
// library, outside timing, and compares it with the server's state.
func (m *mutateState) finalCheck(out *outcome) error {
	rep, err := m.sv.do("GET", "/v1/graphs/"+mutateGraph, nil)
	if err != nil {
		return err
	}
	var info serveapi.GraphInfo
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return fmt.Errorf("graph info: %w", err)
	}
	g, err := butterfly.FromEdges(m.mirror.m, m.mirror.n, m.mirror.list)
	if err != nil {
		return err
	}
	c := g.Count()
	out.check(info.Butterflies == c && info.Version == m.version && info.NumEdges == int64(len(m.mirror.list)),
		"final state: server v%d %d edges %d butterflies; mirror v%d %d edges %d butterflies",
		info.Version, info.NumEdges, info.Butterflies, m.version, len(m.mirror.list), c)
	return nil
}

func serveMutate(cfg config, setups int) (*outcome, error) {
	out := newOutcome()
	out.params["dataset"] = mutateGraph
	out.params["batch"] = fmt.Sprintf("%d inserts of absent edges + %d deletes of present edges", batchHalf, batchHalf)
	out.params["clients"] = 1
	out.params["op"] = "write cycle: batch sent -> exact count at the new version in hand"
	out.params["tail_quantile"] = mutateTailQ
	var registerS []float64
	m, err := setUp(setups, out, func() (*mutateState, error) {
		m, err := setupMutate(cfg, out)
		if err == nil {
			registerS = append(registerS, m.registerS)
		}
		return m, err
	}, func(m *mutateState) { m.sv.close() })
	if err != nil {
		return nil, err
	}
	defer m.sv.close()
	out.notef("%-26s %14.6g s", "register_s", median(registerS))
	rng := rand.New(rand.NewSource(cfg.seed))

	if !cfg.trace {
		ph, err := m.writeLoop(cfg.window(), rng, nil, out)
		if err != nil {
			return nil, err
		}
		reportWrites(out, ph)
		return out, m.finalCheck(out)
	}

	v := out.values
	half := cfg.window() / 2
	a, err := m.sv.scrape()
	if err != nil {
		return nil, err
	}
	rw := beginRuntimeWindow()
	plain, err := m.writeLoop(half, rng, nil, out)
	if err != nil {
		return nil, err
	}
	v["runtime.gc_pause_ms"], v["runtime.gc_cycles"], v["runtime.alloc_kb_per_op"] = rw.end(int64(len(plain.fresh)))
	b, err := m.sv.scrape()
	if err != nil {
		return nil, err
	}
	stageDeltas(v, a, b)

	// The library replay starts from the mirror as it stands now.
	lib, err := newLibMirror(m.mirror)
	if err != nil {
		return nil, err
	}
	m.sv.timer.on.Store(true)
	traced, err := m.writeLoop(half, rng, lib, out)
	m.sv.timer.on.Store(false)
	if err != nil {
		return nil, err
	}
	reportWrites(out, traced)
	traced.tally.finish(v, m.sv.timer, "mutate", "count")
	v["serve.handler.mutate_ms"] = m.sv.timer.meanMS("mutate")
	v["serve.handler.count_ms"] = m.sv.timer.meanMS("count")
	v["gen.generate_s"] = m.genS
	v["graph.build_s"] = lib.buildS
	v["core.relayout_s"] = median(lib.relayoutS)
	v["core.count_cold_s"] = median(lib.countS)
	v["core.alloc_mb_cold"] = median(lib.allocMB)
	v["core.wedges"] = float64(m.wedges)
	v["dynamic.seed_s"] = lib.seedS
	v["dynamic.apply_ms"] = median(lib.applyMS)
	v["dynamic.snapshot_ms"] = median(lib.snapMS)
	v["serve.registry.mutate_ms"] = median(lib.regMS)
	v["http.register_body_mb"] = m.bodyMB
	v["trace.overhead_ms"] = median(traced.fresh) - median(plain.fresh)
	return out, m.finalCheck(out)
}

func reportWrites(out *outcome, ph *mutatePhase) {
	out.values["op_p50_ms"] = median(ph.fresh)
	out.notef("%-26s %14.6g ms (p%g of %d write cycles)", "op tail", quantile(ph.fresh, mutateTailQ), mutateTailQ*100, len(ph.fresh))
	out.notef("%-26s %14.6g ms", "mutate_p50_ms", median(ph.ack))
	out.notef("%-26s %14.6g ms", "mutate_p75_ms", quantile(ph.ack, mutateTailQ))
	out.notef("%-26s %14.6g ms", "fresh_p50_ms", median(ph.fresh))
	out.notef("%-26s %14.6g ms", "fresh_p75_ms", quantile(ph.fresh, mutateTailQ))
}
