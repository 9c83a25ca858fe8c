package main

import (
	"context"
	"runtime"
	"time"

	"butterfly"
)

// kernelTailQ is kernel-suite's reported tail percentile. A run holds
// only about ten rounds, too few for any percentile with ten samples
// beyond it, so the tail is the upper quartile.
const kernelTailQ = 0.75

// kernelState is kernel-suite's set-up: the relabeled stand-ins and
// one graph built from each.
type kernelState struct {
	sets   []standIn
	graphs []*butterfly.Graph
	genS   float64 // time in the generator
	buildS float64 // time in butterfly.FromEdges
}

func setupKernel(cfg config) (*kernelState, error) {
	k := &kernelState{}
	for _, name := range butterfly.PaperDatasets() {
		s, gd, err := makeStandIn(name, cfg.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		g, err := s.build()
		if err != nil {
			return nil, err
		}
		k.buildS += sec(time.Since(t0))
		k.genS += sec(gd)
		k.sets = append(k.sets, s)
		k.graphs = append(k.graphs, g)
	}
	return k, nil
}

// pass is one timed pass over the five graphs.
type pass struct {
	wall     time.Duration // Σ of the count calls' wall time
	relayout time.Duration // Σ of Stage "core.relayout" (traced)
	count    time.Duration // Σ of Stage "core.count" (traced)
	allocMB  float64       // bytes the counts allocated (traced)
}

type passKind int

const (
	cold passKind = iota
	warm
	par
)

// runPass counts every graph once. A cold pass first rebuilds each
// graph from its edge list (untimed), so the degree profile and the
// relayout twin are built again inside the timed count. Every count is
// checked against the oracle; a pass with a wrong answer is invalid.
func (k *kernelState) runPass(kind passKind, traced bool, cfg config, out *outcome) (pass, bool, error) {
	var p pass
	opts := butterfly.CountOptions{}
	if kind == par {
		opts.Threads = runtime.NumCPU()
	}
	if traced {
		opts.Stage = func(stage string, d time.Duration) {
			switch stage {
			case "core.relayout":
				p.relayout += d
			case "core.count":
				p.count += d
			}
		}
	}
	runtime.GC() // keep the previous pass's garbage out of this one
	ok := true
	for i, s := range k.sets {
		if kind == cold {
			g, err := s.build()
			if err != nil {
				return p, false, err
			}
			k.graphs[i] = g
		}
		var c int64
		var err error
		count := func() {
			t0 := time.Now()
			c, err = k.graphs[i].CountWithContext(context.Background(), opts)
			p.wall += time.Since(t0)
		}
		if traced {
			p.allocMB += allocMB(count)
		} else {
			count()
		}
		if err != nil {
			return p, false, err
		}
		ok = out.check(c == cfg.oracle[s.name], "%s: count %d, expected %d", s.name, c, cfg.oracle[s.name]) && ok
	}
	return p, ok, nil
}

// round is one cold, one warm and one parallel pass: kernel-suite's op.
type round struct {
	cold, warm, par pass
}

func (r round) wall() time.Duration { return r.cold.wall + r.warm.wall + r.par.wall }

// runRounds repeats rounds until the deadline and returns the valid
// ones.
func (k *kernelState) runRounds(deadline time.Time, traced bool, cfg config, out *outcome) ([]round, error) {
	var rounds []round
	for first := true; first || time.Now().Before(deadline); first = false {
		var r round
		valid := true
		for _, step := range []struct {
			kind passKind
			dst  *pass
		}{{cold, &r.cold}, {warm, &r.warm}, {par, &r.par}} {
			p, ok, err := k.runPass(step.kind, traced, cfg, out)
			if err != nil {
				return nil, err
			}
			*step.dst = p
			valid = valid && ok
		}
		if valid {
			rounds = append(rounds, r)
		}
	}
	return rounds, nil
}

func kernelSuite(cfg config, setups int) (*outcome, error) {
	out := newOutcome()
	out.params["datasets"] = butterfly.PaperDatasets()
	out.params["op"] = "round: cold + warm + parallel pass over the five stand-ins"
	out.params["threads_parallel"] = runtime.NumCPU()
	out.params["tail_quantile"] = kernelTailQ
	k, err := setUp(setups, out, func() (*kernelState, error) { return setupKernel(cfg) }, func(*kernelState) {})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	if !cfg.trace {
		rounds, err := k.runRounds(start.Add(cfg.window()), false, cfg, out)
		if err != nil {
			return nil, err
		}
		reportRounds(out, rounds)
		return out, nil
	}

	// Traced run: an untraced half (the overhead baseline and the
	// runtime counters), then a traced half.
	wedges := int64(0)
	for _, s := range k.sets {
		wedges += s.wedges()
	}
	half := cfg.window() / 2
	rw := beginRuntimeWindow()
	plain, err := k.runRounds(start.Add(half), false, cfg, out)
	if err != nil {
		return nil, err
	}
	out.values["runtime.gc_pause_ms"], out.values["runtime.gc_cycles"], out.values["runtime.alloc_kb_per_op"] = rw.end(int64(len(plain)))
	traced, err := k.runRounds(start.Add(cfg.window()), true, cfg, out)
	if err != nil {
		return nil, err
	}
	reportRounds(out, traced)
	pick := func(f func(round) float64) float64 {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = f(r)
		}
		return median(xs)
	}
	coldS := pick(func(r round) float64 { return sec(r.cold.wall) })
	warmS := pick(func(r round) float64 { return sec(r.warm.wall) })
	parS := pick(func(r round) float64 { return sec(r.par.wall) })
	v := out.values
	v["gen.generate_s"] = k.genS
	v["graph.build_s"] = k.buildS
	v["core.relayout_s"] = pick(func(r round) float64 { return sec(r.cold.relayout) })
	v["core.count_cold_s"] = pick(func(r round) float64 { return sec(r.cold.count) })
	v["core.count_warm_s"] = pick(func(r round) float64 { return sec(r.warm.count) })
	v["core.count_par_s"] = pick(func(r round) float64 { return sec(r.par.count) })
	v["core.first_call_s"] = coldS - warmS
	if parS > 0 {
		v["core.par_speedup"] = warmS / parS
	}
	v["core.alloc_mb_cold"] = pick(func(r round) float64 { return r.cold.allocMB })
	v["core.alloc_mb_warm"] = pick(func(r round) float64 { return r.warm.allocMB })
	v["core.wedges"] = float64(wedges)
	if warmS > 0 {
		v["core.wedges_per_s"] = float64(wedges) / warmS
	}
	v["trace.overhead_ms"] = roundP50(traced) - roundP50(plain)
	return out, nil
}

func roundP50(rs []round) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = ms(r.wall())
	}
	return median(xs)
}

// reportRounds sets op_* from the round times and notes the per-pass
// medians under the names of the paper's experiment.
func reportRounds(out *outcome, rs []round) {
	walls := make([]float64, len(rs))
	var c, w, p []float64
	for i, r := range rs {
		walls[i] = ms(r.wall())
		c = append(c, sec(r.cold.wall))
		w = append(w, sec(r.warm.wall))
		p = append(p, sec(r.par.wall))
	}
	out.values["op_p50_ms"] = median(walls)
	out.notef("%-26s %14.6g ms (p%g of %d rounds)", "op tail", quantile(walls, kernelTailQ), kernelTailQ*100, len(rs))
	out.notef("%-26s %14.6g s", "cold_count_s", median(c))
	out.notef("%-26s %14.6g s", "warm_count_s", median(w))
	out.notef("%-26s %14.6g s", "par_count_s", median(p))
}
