// Command bfc counts butterflies in a bipartite graph.
//
// Input is either a KONECT-format edge list (-file), a MatrixMarket
// file (-mm), or a named synthetic stand-in of the paper's datasets
// (-dataset, optionally -scale to shrink it). The algorithm family
// member, thread count, block size and vertex ordering are selectable;
// -all runs the whole family and reports each member's time. The
// hybrid intersection kernel's hub policy is selectable with
// -hub auto|never|always, and -arena reuses counting workspaces across
// runs (meaningful with -all, where it makes repeats allocation-free).
//
// Examples:
//
//	bfc -dataset github -scale 10
//	bfc -file out.arxiv -invariant 2 -threads 6
//	bfc -dataset occupations -all
//	bfc -file out.arxiv -estimate edges -samples 5000
//	bfc -dataset github -scale 10 -estimate edges -target-rel-err 0.02
//	bfc -dataset producers -scale 10 -verify
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"butterfly"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfc:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bfc", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		file      = fs.String("file", "", "KONECT-format input file")
		mm        = fs.String("mm", "", "MatrixMarket input file")
		dataset   = fs.String("dataset", "", "paper dataset stand-in name (see -list)")
		list      = fs.Bool("list", false, "list known dataset names and exit")
		scale     = fs.Int("scale", 1, "shrink factor for -dataset")
		algorithm = fs.String("algorithm", "family", "family|wedge-hash|vertex-priority|sort-aggregate|spgemm")
		invariant = fs.Int("invariant", 0, "family member 1-8 (0 = auto; family algorithm only)")
		threads   = fs.Int("threads", 1, "worker count (>1 = parallel algorithm)")
		block     = fs.Int("block", 0, "block size (>1 = blocked variant)")
		order     = fs.String("order", "natural", "vertex order: natural|degree-asc|degree-desc")
		hub       = fs.String("hub", "auto", "hub kernel policy: auto|never|always (family algorithm only)")
		arena     = fs.Bool("arena", false, "reuse counting workspaces across runs (family algorithm only)")
		all       = fs.Bool("all", false, "run all 8 invariants and report times")
		stats     = fs.Bool("stats", false, "print graph statistics")
		verify    = fs.Bool("verify", false, "cross-check all counters (slow)")
		estimate  = fs.String("estimate", "", "approximate instead: vertices|edges|sparsify")
		samples   = fs.Int("samples", 0, "sample count for -estimate vertices|edges (0 = adaptive)")
		targetErr = fs.Float64("target-rel-err", 0, "adaptive -estimate: stop when the 95% CI half-width falls below this fraction of the estimate (0 = default 5%)")
		maxSamp   = fs.Int("max-samples", 0, "adaptive -estimate: sample-count ceiling (0 = default 65536)")
		keepP     = fs.Float64("p", 0.5, "keep probability for -estimate sparsify")
		seed      = fs.Int64("seed", 1, "seed for -estimate")
		jsonOut   = fs.Bool("json", false, "emit the count result as JSON")
		project   = fs.String("project", "", "print the one-mode projection instead: v1|v2")
		minShared = fs.Int64("min-shared", 2, "projection: keep pairs sharing at least this many neighbors")
		top       = fs.Int("top", 20, "projection: print at most this many pairs (by shared count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, n := range butterfly.PaperDatasets() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	g, err := loadGraph(*file, *mm, *dataset, *scale)
	if err != nil {
		return err
	}
	if !*jsonOut {
		fmt.Fprintln(out, g)
	}

	if *stats && !*jsonOut {
		s := g.Stats()
		fmt.Fprintf(out, "density=%.3g degV1=[%d,%d] avg %.2f degV2=[%d,%d] avg %.2f wedges(V1 endpoints)=%d wedges(V2 endpoints)=%d\n",
			s.Density, s.MinDegV1, s.MaxDegV1, s.AvgDegV1,
			s.MinDegV2, s.MaxDegV2, s.AvgDegV2, s.WedgesV1, s.WedgesV2)
		fmt.Fprintf(out, "degree Gini: V1=%.3f V2=%.3f\n", g.DegreeGini(butterfly.V1), g.DegreeGini(butterfly.V2))
	}

	if *estimate != "" {
		return runEstimate(out, g, *estimate, *samples, *targetErr, *maxSamp, *keepP, *seed, *jsonOut)
	}

	if *project != "" {
		return runProject(out, g, *project, *minShared, *top)
	}

	hubPolicy, err := parseHub(*hub)
	if err != nil {
		return err
	}
	var pool *butterfly.Arena
	if *arena {
		pool = butterfly.NewArena()
	}

	if *all {
		for inv := butterfly.Invariant1; inv <= butterfly.Invariant8; inv++ {
			start := time.Now()
			c, err := g.CountWith(butterfly.CountOptions{Invariant: inv, Threads: *threads, BlockSize: *block, Hub: hubPolicy, Arena: pool})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%v: %d butterflies in %.3fs\n", inv, c, time.Since(start).Seconds())
		}
		return nil
	}

	opts := butterfly.CountOptions{
		Invariant: butterfly.Invariant(*invariant),
		Threads:   *threads,
		BlockSize: *block,
		Hub:       hubPolicy,
		Arena:     pool,
	}
	switch *algorithm {
	case "family":
		opts.Algorithm = butterfly.AlgorithmFamily
	case "wedge-hash":
		opts.Algorithm = butterfly.AlgorithmWedgeHash
	case "vertex-priority":
		opts.Algorithm = butterfly.AlgorithmVertexPriority
	case "sort-aggregate":
		opts.Algorithm = butterfly.AlgorithmSortAggregate
	case "spgemm":
		opts.Algorithm = butterfly.AlgorithmSpGEMM
	default:
		return fmt.Errorf("unknown -algorithm %q", *algorithm)
	}
	switch *order {
	case "natural":
		opts.Order = butterfly.OrderNatural
	case "degree-asc":
		opts.Order = butterfly.OrderDegreeAsc
	case "degree-desc":
		opts.Order = butterfly.OrderDegreeDesc
	default:
		return fmt.Errorf("unknown -order %q", *order)
	}

	start := time.Now()
	c, err := g.CountWith(opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()

	if *jsonOut {
		s := g.Stats()
		return json.NewEncoder(out).Encode(map[string]any{
			"v1":          s.NumV1,
			"v2":          s.NumV2,
			"edges":       s.NumEdges,
			"density":     s.Density,
			"butterflies": c,
			"algorithm":   opts.Algorithm.String(),
			"invariant":   opts.Invariant.String(),
			"threads":     *threads,
			"seconds":     elapsed,
			"clustering":  g.ClusteringCoefficient(),
		})
	}
	fmt.Fprintf(out, "butterflies = %d (%v/%v, threads=%d, %.3fs)\n", c, opts.Algorithm, opts.Invariant, *threads, elapsed)
	fmt.Fprintf(out, "clustering coefficient = %.6f\n", g.ClusteringCoefficient())

	if *verify {
		start = time.Now()
		if err := g.Verify(); err != nil {
			return err
		}
		fmt.Fprintf(out, "verified: all 8 invariants + independent baselines agree (%.3fs)\n", time.Since(start).Seconds())
	}
	return nil
}

func parseHub(s string) (butterfly.HubPolicy, error) {
	switch s {
	case "auto":
		return butterfly.HubAuto, nil
	case "never":
		return butterfly.HubNever, nil
	case "always":
		return butterfly.HubAlways, nil
	default:
		return 0, fmt.Errorf("unknown -hub %q (want auto|never|always)", s)
	}
}

func runProject(out io.Writer, g *butterfly.Graph, side string, minShared int64, top int) error {
	var sd butterfly.Side
	switch side {
	case "v1":
		sd = butterfly.V1
	case "v2":
		sd = butterfly.V2
	default:
		return fmt.Errorf("unknown -project %q (want v1|v2)", side)
	}
	pairs, err := g.Project(sd, minShared)
	if err != nil {
		return err
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Shared != pairs[j].Shared {
			return pairs[i].Shared > pairs[j].Shared
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	fmt.Fprintf(out, "%s projection: %d pairs with ≥%d shared neighbors\n", sd, len(pairs), minShared)
	for i, p := range pairs {
		if i >= top {
			fmt.Fprintf(out, "… %d more\n", len(pairs)-top)
			break
		}
		fmt.Fprintf(out, "  %d — %d: %d shared (%d butterflies)\n",
			p.A, p.B, p.Shared, p.Shared*(p.Shared-1)/2)
	}
	return nil
}

func runEstimate(out io.Writer, g *butterfly.Graph, kind string, samples int, targetErr float64, maxSamples int, p float64, seed int64, jsonOut bool) error {
	opts := butterfly.EstimateOptions{
		Samples: samples, P: p, Seed: seed,
		TargetRelErr: targetErr, MaxSamples: maxSamples,
	}
	switch kind {
	case "vertices":
		opts.Strategy = butterfly.SampleVertices
	case "edges":
		opts.Strategy = butterfly.SampleEdges
	case "sparsify":
		opts.Strategy = butterfly.SampleSparsify
	default:
		return fmt.Errorf("unknown -estimate %q (want vertices|edges|sparsify)", kind)
	}
	start := time.Now()
	est, err := g.EstimateWithCI(opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	if jsonOut {
		res := map[string]any{
			"v1":       g.NumV1(),
			"v2":       g.NumV2(),
			"edges":    g.NumEdges(),
			"estimate": est.Estimate,
			"strategy": kind,
			"seed":     seed,
			"seconds":  elapsed,
		}
		if kind == "sparsify" {
			res["p"] = p
		} else {
			res["samples"] = est.Samples
			res["stderr"] = est.StdErr
			res["ci95"] = est.CI95
		}
		return json.NewEncoder(out).Encode(res)
	}
	if kind == "sparsify" {
		fmt.Fprintf(out, "estimated butterflies ≈ %.0f (%s sampling, %.3fs)\n",
			est.Estimate, kind, elapsed)
		return nil
	}
	fmt.Fprintf(out, "estimated butterflies ≈ %.0f ± %.0f (95%% CI, %s sampling, %d samples, %.3fs)\n",
		est.Estimate, est.CI95, kind, est.Samples, elapsed)
	return nil
}

func loadGraph(file, mm, dataset string, scale int) (*butterfly.Graph, error) {
	set := 0
	for _, s := range []string{file, mm, dataset} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("need exactly one of -file, -mm, -dataset (try -list)")
	}
	switch {
	case file != "":
		return butterfly.ReadKONECTFile(file)
	case mm != "":
		return butterfly.ReadMatrixMarketFile(mm)
	default:
		return butterfly.GeneratePaperDataset(dataset, scale)
	}
}
