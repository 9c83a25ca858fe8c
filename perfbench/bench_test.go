package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"butterfly"
)

// spec is the part of BENCHMARK.json the self-test checks.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	toyOnce   sync.Once
	toyOracle map[string]int64
	toyErr    error
)

// baselineOracle counts every stand-in at the given scale with the
// independent vertex-priority counter.
func baselineOracle(scale int) (map[string]int64, error) {
	out := map[string]int64{}
	for _, name := range butterfly.PaperDatasets() {
		g, err := butterfly.GeneratePaperDataset(name, scale)
		if err != nil {
			return nil, err
		}
		c, err := g.CountWith(butterfly.CountOptions{Algorithm: butterfly.AlgorithmVertexPriority})
		if err != nil {
			return nil, err
		}
		out[name] = c
	}
	return out, nil
}

// toyConfig is a one-second run at 1/50 scale, checked against the
// vertex-priority counter.
func toyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	toyOnce.Do(func() { toyOracle, toyErr = baselineOracle(50) })
	if toyErr != nil {
		t.Fatal(toyErr)
	}
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, scale: 50, oracle: toyOracle}
}

// mayBeZero are per-layer metrics whose measured value can rightly be
// 0: no request coalesced, tracing cost nothing, no GC ran in a short
// window, or (checked on its own below) no read hit the cache.
var mayBeZero = map[string]bool{
	"serve.coalesced": true, "trace.overhead_ms": true, "serve.cache_hit_ratio": true,
	"runtime.gc_pause_ms": true, "runtime.gc_cycles": true,
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at toy
// scale, untraced and traced, and checks that each listed metric is
// reported with its unit, that end-to-end values and the per-layer
// values a workload must measure are not 0, that each workload loads
// the layers it was chosen for, and that every answer was right.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	catalog := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		catalog[d.name] = d.unit
	}
	listed := 0
	for _, group := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			listed++
			if catalog[m.Name] != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, perfbench unit %q", m.Name, m.Unit, catalog[m.Name])
			}
		}
	}
	if listed != len(catalog) {
		t.Errorf("BENCHMARK.json lists %d metrics, perfbench defines %d", listed, len(catalog))
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench defines %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("workload %s is not defined", w.Name)
		}
		must := map[string]bool{}
		for _, name := range wl.layers {
			if _, ok := catalog[name]; !ok {
				t.Errorf("%s: listed layer metric %s is not in the catalog", w.Name, name)
			}
			must[name] = true
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := execute(toyConfig(t, w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				case trace && must[m.Name] && !mayBeZero[m.Name] && got.Value == 0:
					t.Errorf("%s: per-layer metric %s was not measured (0)", w.Name, m.Name)
				}
			}
			if trace {
				checkLayerLoad(t, w.Name, res.Metrics)
			}
		}
	}
}

// checkLayerLoad checks that a traced run loads the layers its
// workload was chosen for: serve-read is served from the cache with
// the kernel idle, and serve-mutate's fresh counts all miss the cache
// and spend most of their handler time in the kernel.
func checkLayerLoad(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "serve-read":
		if v("serve.cache_hit_ratio") != 1 {
			t.Errorf("serve-read: serve.cache_hit_ratio = %v, want 1", v("serve.cache_hit_ratio"))
		}
		if v("serve.stage.kernel_ms") != 0 {
			t.Errorf("serve-read: serve.stage.kernel_ms = %v, want 0", v("serve.stage.kernel_ms"))
		}
	case "serve-mutate":
		if v("serve.cache_hit_ratio") != 0 {
			t.Errorf("serve-mutate: serve.cache_hit_ratio = %v, want 0", v("serve.cache_hit_ratio"))
		}
		if k, h := v("serve.stage.kernel_ms"), v("serve.handler.count_ms"); !(k > h/2) {
			t.Errorf("serve-mutate: serve.stage.kernel_ms = %v is not most of serve.handler.count_ms = %v", k, h)
		}
	}
}

// TestWrongExpectedCountFails plants a wrong expected count and checks
// that it surfaces as failed operations, not as a time.
func TestWrongExpectedCountFails(t *testing.T) {
	for _, workload := range []string{"kernel-suite", "serve-read", "serve-mutate"} {
		cfg := toyConfig(t, workload, false)
		wrong := map[string]int64{}
		for k, v := range cfg.oracle {
			wrong[k] = v + 1
		}
		cfg.oracle = wrong
		res, err := execute(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected count gave correct=%v failed=%d", workload, res.Correct, res.Failed)
		}
	}
}

// TestOracleTable re-checks the committed paper-scale counts against
// the independent vertex-priority counter.
func TestOracleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("counts the five paper-scale stand-ins")
	}
	for _, name := range butterfly.PaperDatasets() {
		g, err := butterfly.GeneratePaperDataset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := g.CountWith(butterfly.CountOptions{Algorithm: butterfly.AlgorithmVertexPriority})
		if err != nil {
			t.Fatal(err)
		}
		if c != paperOracle[name] {
			t.Errorf("%s: vertex-priority counts %d, table says %d", name, c, paperOracle[name])
		}
	}
}

// TestEdgeSetBatch checks that a batch keeps |E| fixed and always
// changes the edge set.
func TestEdgeSetBatch(t *testing.T) {
	s := standIn{m: 5, n: 5, edges: [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 3}, {4, 4}, {3, 2}}}
	es := newEdgeSet(s.m, s.n, s.edges)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		ins, del := es.batch(rng, 2)
		for _, e := range ins {
			if _, ok := es.pos[e]; ok {
				t.Fatalf("insert %v is already present", e)
			}
		}
		for _, e := range del {
			if _, ok := es.pos[e]; !ok {
				t.Fatalf("delete %v is absent", e)
			}
		}
		es.apply(ins, del)
		if len(es.list) != len(s.edges) || len(es.pos) != len(s.edges) {
			t.Fatalf("|E| drifted to %d/%d", len(es.list), len(es.pos))
		}
	}
}
