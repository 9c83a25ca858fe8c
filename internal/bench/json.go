package bench

// Machine-readable benchmark output: the -json flag of cmd/bfbench
// writes a JSONReport so successive PRs can diff performance without
// parsing text tables. BENCH_PR1.json at the repo root is the first
// committed snapshot.

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/estimate"
	"butterfly/internal/graph"
	"butterfly/internal/peel"
)

// JSONResult is one measured cell: a (dataset, algorithm, invariant,
// threads) combination with its best-of-repeat wall time and the
// allocation count of the measured run. Counting rows put the butterfly
// count in Count; peeling rows (schema v2, algorithm "peel-tip/…" or
// "peel-wing/…") put the decomposition checksum (Σ tip/wing numbers)
// there, which must agree across engines, and name the engine in
// Invariant.
type JSONResult struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	Invariant string `json:"invariant"`
	Threads   int    `json:"threads"`
	NsPerOp   int64  `json:"ns_per_op"`
	Allocs    int64  `json:"allocs"`
	Count     int64  `json:"count"`

	// estimate rows only (schema v4). Count holds the exact count the
	// estimate is judged against; RelErr = |Estimate−Count|/Count and
	// Speedup = exact auto-invariant ns/op ÷ this row's ns/op, so the
	// accuracy/throughput trade sits in the row itself.
	Estimate float64 `json:"estimate,omitempty"`
	StdErr   float64 `json:"stderr,omitempty"`
	CI95     float64 `json:"ci95,omitempty"`
	Samples  int     `json:"samples,omitempty"`
	RelErr   float64 `json:"rel_err,omitempty"`
	Speedup  float64 `json:"speedup_vs_exact,omitempty"`
}

// JSONReport is the top-level -json document.
type JSONReport struct {
	Schema  string       `json:"schema"`
	Go      string       `json:"go"`
	Scale   int          `json:"scale"`
	Repeat  int          `json:"repeat"`
	Results []JSONResult `json:"results"`
}

// measureJSON times fn best-of-repeat and reports the allocation count
// observed during the fastest run.
func measureJSON(repeat int, fn func() int64) (nsPerOp, allocs, count int64) {
	if repeat < 1 {
		repeat = 1
	}
	var ms1, ms2 runtime.MemStats
	best := int64(-1)
	for r := 0; r < repeat; r++ {
		runtime.ReadMemStats(&ms1)
		t0 := time.Now()
		count = fn()
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms2)
		if best < 0 || ns < best {
			best = ns
			allocs = int64(ms2.Mallocs - ms1.Mallocs)
		}
	}
	return best, allocs, count
}

// JSONBench measures every invariant sequentially plus the auto
// invariant at each requested thread count, for every named dataset.
// The "family/arena" row re-runs the sequential auto count through a
// warm core.Arena, making the allocation win visible in the snapshot.
// Schema v2 adds peeling rows: the tip and wing decompositions on the
// delta and recount engines at every requested thread count. Schema v4
// adds "estimate/…" rows: the vertex- and edge-sampling estimators at a
// fixed budget and under the adaptive stopping rule, each carrying
// accuracy (estimate, error bars, relative error vs. exact) alongside
// throughput. Schema v5 drops v3's per-aggregation-mode "family/agg"
// rows with the aggregation choice itself.
func JSONBench(names []string, dataDir string, scale int, threadsList []int, repeat int) (*JSONReport, error) {
	rep := &JSONReport{
		Schema: "bfbench/v5",
		Go:     runtime.Version(),
		Scale:  scale,
		Repeat: repeat,
	}
	for _, name := range names {
		g, err := LoadDataset(name, dataDir, scale)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, jsonDatasetRows(name, g, threadsList, repeat)...)
		rep.Results = append(rep.Results, jsonEstimateRows(name, g, repeat)...)
		rep.Results = append(rep.Results, jsonPeelRows(name, g, threadsList, repeat)...)
	}
	return rep, nil
}

// jsonEstimateRows measures the approximate tier (schema v4). Five
// rows per dataset: the vertex- and edge-sampling estimators, each at
// a fixed 1024-draw budget (Invariant "fixed") and under the adaptive
// 5% stopping rule (Invariant "adaptive"), plus the streaming
// reservoir's snapshot read (Invariant "stream"). The row's Speedup
// divides the exact sequential auto-invariant time by the estimator's,
// so the ≥10×-at-≤5%-error acceptance bar reads straight off the
// snapshot.
func jsonEstimateRows(name string, g *graph.Bipartite, repeat int) []JSONResult {
	auto := core.AutoInvariant(g)
	exactNs, _, exact := measureJSON(repeat, func() int64 {
		return core.CountWith(g, core.Options{Invariant: auto})
	})
	configs := []struct {
		label string
		opts  estimate.Options
	}{
		{"fixed", estimate.Options{Strategy: estimate.StrategyVertices, Samples: 1024, Seed: 1}},
		{"fixed", estimate.Options{Strategy: estimate.StrategyEdges, Samples: 1024, Seed: 1}},
		{"adaptive", estimate.Options{Strategy: estimate.StrategyVertices, Seed: 1}},
		{"adaptive", estimate.Options{Strategy: estimate.StrategyEdges, Seed: 1}},
	}
	var rows []JSONResult
	for _, cfg := range configs {
		var res estimate.Result
		ns, allocs, _ := measureJSON(repeat, func() int64 {
			var err error
			res, err = estimate.Sample(g, cfg.opts)
			if err != nil {
				return -1
			}
			return int64(res.Estimate)
		})
		relErr := 0.0
		if exact > 0 {
			relErr = (res.Estimate - float64(exact)) / float64(exact)
			if relErr < 0 {
				relErr = -relErr
			}
		}
		rows = append(rows, JSONResult{
			Dataset:   name,
			Algorithm: "estimate/" + cfg.opts.Strategy.String(),
			Invariant: cfg.label,
			Threads:   1, NsPerOp: ns, Allocs: allocs, Count: exact,
			Estimate: res.Estimate, StdErr: res.StdErr, CI95: res.CI95,
			Samples: res.Samples, RelErr: relErr,
			Speedup: float64(exactNs) / float64(ns),
		})
	}

	// The streaming tier's query path: ingest the edge stream once
	// (that cost is the load, not the query — it replaces the CSR
	// build), then measure the snapshot read /v1/estimate serves on a
	// loading graph. The variance pass is cached per stream position,
	// so the steady-state query is O(1) regardless of |E| — this is
	// the row that carries the dashboard-tier throughput claim.
	capacity := int(g.NumEdges() / 4)
	if capacity < 4096 {
		capacity = 4096
	}
	res, err := estimate.NewReservoir(g.NumV1(), g.NumV2(), capacity, 1)
	if err == nil {
		for _, e := range g.Edges() {
			_ = res.Add(int(e.U), int(e.V))
		}
		res.Snapshot() // populate the per-position variance cache
		var snap estimate.ReservoirSnapshot
		ns, allocs, _ := measureJSON(repeat, func() int64 {
			snap = res.Snapshot()
			return int64(snap.Estimate)
		})
		relErr := 0.0
		if exact > 0 {
			relErr = (snap.Estimate - float64(exact)) / float64(exact)
			if relErr < 0 {
				relErr = -relErr
			}
		}
		rows = append(rows, JSONResult{
			Dataset:   name,
			Algorithm: "estimate/reservoir",
			Invariant: "stream",
			Threads:   1, NsPerOp: ns, Allocs: allocs, Count: exact,
			Estimate: snap.Estimate, StdErr: snap.StdErr, CI95: snap.CI95,
			Samples: snap.ReservoirSize, RelErr: relErr,
			Speedup: float64(exactNs) / float64(ns),
		})
	}
	return rows
}

// jsonPeelRows measures the tip and wing decompositions on both
// peeling engines. Count is the decomposition checksum (Σ numbers), so
// a snapshot diff immediately exposes an engine disagreement.
func jsonPeelRows(name string, g *graph.Bipartite, threadsList []int, repeat int) []JSONResult {
	threads := []int{1}
	for _, t := range threadsList {
		if t > 1 {
			threads = append(threads, t)
		}
	}
	var rows []JSONResult
	for _, engine := range []peel.Engine{peel.EngineDelta, peel.EngineRecount} {
		for _, t := range threads {
			opts := peel.Options{Engine: engine, Threads: t}
			ns, allocs, count := measureJSON(repeat, func() int64 {
				tip, _ := peel.TipNumbersWith(g, core.SideV1, opts)
				return sum64(tip)
			})
			rows = append(rows, JSONResult{
				Dataset: name, Algorithm: "peel-tip/" + engine.String(), Invariant: engine.String(),
				Threads: t, NsPerOp: ns, Allocs: allocs, Count: count,
			})
			ns, allocs, count = measureJSON(repeat, func() int64 {
				wing, _ := peel.WingNumbersWith(g, opts)
				return sum64(wing)
			})
			rows = append(rows, JSONResult{
				Dataset: name, Algorithm: "peel-wing/" + engine.String(), Invariant: engine.String(),
				Threads: t, NsPerOp: ns, Allocs: allocs, Count: count,
			})
		}
	}
	return rows
}

func sum64(vals []int64) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	return s
}

func jsonDatasetRows(name string, g *graph.Bipartite, threadsList []int, repeat int) []JSONResult {
	var rows []JSONResult
	for _, inv := range core.Invariants() {
		ns, allocs, count := measureJSON(repeat, func() int64 {
			return core.Count(g, inv)
		})
		rows = append(rows, JSONResult{
			Dataset: name, Algorithm: "family/seq", Invariant: inv.String(),
			Threads: 1, NsPerOp: ns, Allocs: allocs, Count: count,
		})
	}
	auto := core.AutoInvariant(g)
	arena := core.NewArena()
	opts := core.Options{Invariant: auto, Hub: core.HubNever, Arena: arena}
	core.CountWith(g, opts) // warm the arena
	ns, allocs, count := measureJSON(repeat, func() int64 {
		return core.CountWith(g, opts)
	})
	rows = append(rows, JSONResult{
		Dataset: name, Algorithm: "family/arena", Invariant: auto.String(),
		Threads: 1, NsPerOp: ns, Allocs: allocs, Count: count,
	})
	for _, threads := range threadsList {
		if threads <= 1 {
			continue
		}
		ns, allocs, count := measureJSON(repeat, func() int64 {
			return core.CountWith(g, core.Options{Invariant: auto, Threads: threads})
		})
		rows = append(rows, JSONResult{
			Dataset: name, Algorithm: "family/parallel", Invariant: auto.String(),
			Threads: threads, NsPerOp: ns, Allocs: allocs, Count: count,
		})
	}
	return rows
}

// WriteJSON renders the report with stable indentation (diff-friendly).
func WriteJSON(w io.Writer, rep *JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
