// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload at paper scale, checks every answer, and prints
// a human-readable report followed by one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload kernel-suite --seed 1 --seconds 15 --trace 0
//
// Workloads (see README.md for why each exists and which layers it
// loads):
//
//	kernel-suite  the paper's experiment: exact counts of the five
//	              Fig 9 stand-ins, cold, warm and parallel, in-process
//	serve-read    cached dashboard queries against bfserved over
//	              loopback HTTP, open loop at a fixed arrival rate
//	serve-mutate  one closed-loop writer: mutation batch, then an
//	              exact count at the new version, on the github
//	              stand-in
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing the
// benchmark's own calls into each layer's public entry point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. For a per-layer metric, moves
// records which end-to-end metric it should move on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; "op" is the workload's unit of blocking work
// (see README.md). The op's tail percentile is printed in the report
// but not returned: on a shared 2-CPU machine it moves too much from
// run to run to hold any bound.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"op_p50_ms", "ms", ""},
}

// perLayer are the traced run's metrics, named by module. A workload
// must measure the ones its workloads entry lists; a metric it did not
// measure reports 0.
var perLayer = []metricDef{
	{"gen.generate_s", "s", "setup_s: all workloads"},
	{"graph.build_s", "s", "setup_s: kernel-suite, serve-mutate"},
	{"core.relayout_s", "s", "op_p50_ms: kernel-suite (cold pass), serve-mutate (fresh count)"},
	{"core.count_cold_s", "s", "op_p50_ms: kernel-suite (cold pass), serve-mutate (fresh count)"},
	{"core.count_warm_s", "s", "op_p50_ms: kernel-suite (warm pass)"},
	{"core.count_par_s", "s", "op_p50_ms: kernel-suite (parallel pass)"},
	{"core.first_call_s", "s", "op_p50_ms: kernel-suite (cold minus warm pass)"},
	{"core.par_speedup", "x", "op_p50_ms: kernel-suite"},
	{"core.alloc_mb_cold", "MB", "op_p50_ms and peak_rss_mb: kernel-suite, serve-mutate"},
	{"core.alloc_mb_warm", "MB", "op_p50_ms: kernel-suite"},
	{"core.wedges", "count", "op_p50_ms: kernel-suite, serve-mutate (work; repeats exactly per seed)"},
	{"core.wedges_per_s", "1/s", "op_p50_ms: kernel-suite (warm pass)"},
	{"dynamic.seed_s", "s", "setup_s: serve-mutate (registration)"},
	{"dynamic.apply_ms", "ms", "op_p50_ms: serve-mutate"},
	{"dynamic.snapshot_ms", "ms", "op_p50_ms: serve-mutate"},
	{"serve.registry.mutate_ms", "ms", "op_p50_ms: serve-mutate"},
	{"serve.stage.parse_ms", "ms", "op_p50_ms: serve-read, serve-mutate"},
	{"serve.stage.registry_ms", "ms", "op_p50_ms: serve-read, serve-mutate"},
	{"serve.stage.cache_ms", "ms", "op_p50_ms: serve-read"},
	{"serve.stage.admission_ms", "ms", "op_p50_ms: serve-mutate"},
	{"serve.stage.kernel_ms", "ms", "op_p50_ms: serve-mutate; near 0 on serve-read"},
	{"serve.stage.mutate_ms", "ms", "op_p50_ms: serve-mutate"},
	{"serve.stage.render_ms", "ms", "op_p50_ms: serve-read"},
	{"serve.stage.load_ms", "ms", "setup_s: serve-read, serve-mutate (registration)"},
	{"serve.handler.read_ms", "ms", "op_p50_ms: serve-read"},
	{"serve.handler.mutate_ms", "ms", "op_p50_ms: serve-mutate"},
	{"serve.handler.count_ms", "ms", "op_p50_ms: serve-mutate"},
	{"serve.cache_hit_ratio", "ratio", "op_p50_ms: serve-read near 1, serve-mutate 0"},
	{"serve.coalesced", "count", "op_p50_ms: serve-read"},
	{"http.overhead_ms", "ms", "op_p50_ms: serve-read, serve-mutate"},
	{"http.register_body_mb", "MB", "setup_s: serve-read, serve-mutate"},
	{"runtime.gc_pause_ms", "ms", "op tail, peak_rss_mb: all workloads"},
	{"runtime.gc_cycles", "count", "op tail, peak_rss_mb: all workloads"},
	{"runtime.alloc_kb_per_op", "KB", "op_p50_ms, peak_rss_mb: all workloads"},
	{"load.late_p99_ms", "ms", "none: validates op_p50_ms on serve-read, should stay near 0"},
	{"trace.overhead_ms", "ms", "none: traced minus untraced op_p50_ms"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale divides the stand-ins' sizes: 1 (paper scale) except in
	// the self-test.
	scale int
	// oracle is the expected exact count of each stand-in.
	oracle map[string]int64
}

// window is the measured time; a traced run splits it into an
// untraced half and a traced half.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	// values holds every measured metric by catalog name.
	values map[string]float64
	// notes are report lines: the workload's own named figures and
	// sample counts.
	notes []string
	// params describes the workload's fixed parameters.
	params map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, params: map[string]any{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check counts one checked operation and reports whether it passed.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: "+format+"\n", args...)
	}
	return ok
}

// workload is one runner with its fixed parameters.
type workload struct {
	// run measures the workload after setups set-ups.
	run func(cfg config, setups int) (*outcome, error)
	// setups is how many times an untraced run sets up; setup_s is
	// their median and the last one is measured. A traced run sets up
	// once.
	setups int
	// layers are the per-layer metrics the traced run must measure.
	layers []string
}

// runtimeLayers are measured by every workload.
var runtimeLayers = []string{"gen.generate_s", "graph.build_s", "runtime.gc_pause_ms", "runtime.gc_cycles", "runtime.alloc_kb_per_op", "trace.overhead_ms"}

// workloads maps each workload to its runner. serve-mutate sets up
// once: registering the relabeled github stand-in takes 20 to 40 s on
// a 2-CPU machine, and three of those per run would not fit the
// benchmark's time budget.
var workloads = map[string]workload{
	"kernel-suite": {kernelSuite, 3, append([]string{
		"core.relayout_s", "core.count_cold_s", "core.count_warm_s", "core.count_par_s",
		"core.first_call_s", "core.par_speedup", "core.alloc_mb_cold", "core.alloc_mb_warm",
		"core.wedges", "core.wedges_per_s",
	}, runtimeLayers...)},
	"serve-read": {serveRead, 3, append([]string{
		"serve.stage.parse_ms", "serve.stage.registry_ms", "serve.stage.cache_ms",
		"serve.stage.render_ms", "serve.stage.load_ms", "serve.handler.read_ms",
		"serve.cache_hit_ratio", "serve.coalesced", "http.overhead_ms", "http.register_body_mb",
		"load.late_p99_ms",
	}, runtimeLayers...)},
	"serve-mutate": {serveMutate, 1, append([]string{
		"core.relayout_s", "core.count_cold_s", "core.alloc_mb_cold", "core.wedges",
		"dynamic.seed_s", "dynamic.apply_ms", "dynamic.snapshot_ms", "serve.registry.mutate_ms",
		"serve.stage.parse_ms", "serve.stage.registry_ms", "serve.stage.cache_ms",
		"serve.stage.admission_ms", "serve.stage.kernel_ms", "serve.stage.mutate_ms",
		"serve.stage.render_ms", "serve.stage.load_ms", "serve.handler.mutate_ms",
		"serve.handler.count_ms", "serve.cache_hit_ratio", "serve.coalesced",
		"http.overhead_ms", "http.register_body_mb",
	}, runtimeLayers...)},
}

// setUp runs setup n times, each after a forced GC, records setup_s as
// the median set-up time, and returns the last state. release frees a
// state that a later set-up replaces.
func setUp[S any](n int, out *outcome, setup func() (S, error), release func(S)) (S, error) {
	var s S
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(s)
			var zero S
			s = zero
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, err
		}
		times = append(times, sec(time.Since(t0)))
	}
	out.values["setup_s"] = median(times)
	out.notef("setup_s over %d set-ups: %.4g", len(times), times)
	return s, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "kernel-suite | serve-read | serve-mutate")
	seed := fl.Int64("seed", 1, "seed for the label permutations and the request mix")
	seconds := fl.Float64("seconds", 15, "measured time")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want kernel-suite, serve-read or serve-mutate)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, oracle: paperOracle}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload, prints the report, and assembles the
// result for the requested metric set. Every end-to-end metric and
// every per-layer metric the workload lists must have been measured;
// any other per-layer metric reports 0 unless the run measured it.
func execute(cfg config, w io.Writer) (*result, error) {
	wl := workloads[cfg.workload]
	setups := wl.setups
	if cfg.trace {
		setups = 1
	}
	steal0, total0 := cpuTicks()
	out, err := wl.run(cfg, setups)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	steal := 0.0
	if steal1, total1 := cpuTicks(); total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	out.values["peak_rss_mb"] = peakRSSMB()
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	must := map[string]bool{}
	for _, name := range wl.layers {
		must[name] = true
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && (!cfg.trace || must[d.name]) {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = out.failed == 0 && out.attempted > 0
	printReport(w, cfg, out, defs, steal)
	return res, nil
}

// printReport prints the run metadata, the workload's notes and the
// metric table. steal is the share of CPU time the hypervisor took
// from this machine during the run, the main source of run-to-run
// spread on a shared virtual machine.
func printReport(w io.Writer, cfg config, out *outcome, defs []metricDef, steal float64) {
	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"scale":      cfg.scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"cpu_steal":  steal,
		"commit":     gitCommit("."),
		"params":     out.params,
	}
	b, _ := json.Marshal(meta) // only plain values: cannot fail
	fmt.Fprintf(w, "meta %s\n", b)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	frac := 0.0
	if out.attempted > 0 {
		frac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  %-26s %14.6g %-6s (%d of %d checked ops)\n", "failed_frac", frac, "ratio", out.failed, out.attempted)
	title := "end-to-end"
	if cfg.trace {
		title = "per-layer (should move)"
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-26s %14.6g %-6s %s\n", d.name, out.values[d.name], d.unit, d.moves)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the steal and total CPU ticks of all CPUs from
// /proc/stat, or zeros where it cannot be read.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// gitCommit resolves HEAD from the .git directory under root, or
// "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
