package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig9(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "fig9", "-scale", "200"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig 9", "arxiv-cond-mat", "github", "Butterflies (paper)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in: %q", want, out)
		}
	}
}

func TestRunFig10And11(t *testing.T) {
	for _, table := range []string{"fig10", "fig11"} {
		var sb strings.Builder
		if err := run([]string{"-table", table, "-scale", "200", "-threads", "2"}, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.Contains(out, "Inv1") || !strings.Contains(out, "Inv8") {
			t.Fatalf("%s: missing invariant columns: %q", table, out)
		}
	}
}

func TestRunBalance(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "balance", "-scale", "100", "-threads", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "max/mean") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunSweepsAndAblations(t *testing.T) {
	for table, marker := range map[string]string{
		"partition": "winner",
		"sparsity":  "density",
		"lookahead": "speedup",
		"blocked":   "unblocked",
		"order":     "degree-desc",
		"baselines": "vertex-priority",
	} {
		var sb strings.Builder
		if err := run([]string{"-table", table, "-scale", "400"}, &sb); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if !strings.Contains(sb.String(), marker) {
			t.Fatalf("%s: missing %q in %q", table, marker, sb.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "nope"}, &sb); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunDynamic(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "dynamic", "-scale", "200"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "updates/s") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunDistAndPeeling(t *testing.T) {
	for table, marker := range map[string]string{
		"dist":    "Gini",
		"peeling": "tip-numbers-rounds",
	} {
		var sb strings.Builder
		if err := run([]string{"-table", table, "-scale", "200"}, &sb); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		if !strings.Contains(sb.String(), marker) {
			t.Fatalf("%s: missing %q in %q", table, marker, sb.String())
		}
	}
}

func TestRunEstimators(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "estimators", "-scale", "200"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rel. error") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-table", "fig9", "-scale", "200", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "dataset,v1,v2,") {
		t.Fatalf("CSV: %q", string(data)[:40])
	}
	if err := run([]string{"-table", "fig10", "-scale", "400", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig10.csv")); err != nil {
		t.Fatal(err)
	}
	// Bad directory errors.
	if err := run([]string{"-table", "fig9", "-scale", "400", "-csv", "/no/such/dir"}, &sb); err == nil {
		t.Fatal("bad csv dir accepted")
	}
}

func TestRunSignificance(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "significance", "-scale", "300"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "z-score") {
		t.Fatalf("output: %q", sb.String())
	}
}

func TestRunJSONStdout(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-json", "-", "-scale", "400", "-threads", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	var rep struct {
		Schema  string `json:"schema"`
		Scale   int    `json:"scale"`
		Results []struct {
			Dataset   string  `json:"dataset"`
			Algorithm string  `json:"algorithm"`
			Invariant string  `json:"invariant"`
			Threads   int     `json:"threads"`
			NsPerOp   int64   `json:"ns_per_op"`
			Count     int64   `json:"count"`
			Estimate  float64 `json:"estimate"`
			Samples   int     `json:"samples"`
			RelErr    float64 `json:"rel_err"`
			Speedup   float64 `json:"speedup_vs_exact"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v in %q", err, out)
	}
	if rep.Schema != "bfbench/v5" || rep.Scale != 400 {
		t.Fatalf("header wrong: %+v", rep)
	}
	algos := map[string]bool{}
	// Peeling checksums must agree across engines and thread counts —
	// the snapshot doubles as a differential test. Likewise every
	// family counting row of a dataset.
	peelSums := map[string]map[int64]bool{}
	familyCounts := map[string]map[int64]bool{}
	for _, r := range rep.Results {
		algos[r.Algorithm] = true
		if r.NsPerOp < 0 || r.Dataset == "" || r.Invariant == "" || r.Threads < 1 {
			t.Fatalf("malformed result %+v", r)
		}
		if strings.HasPrefix(r.Algorithm, "peel-") {
			key := r.Dataset + "|" + strings.SplitN(r.Algorithm, "/", 2)[0]
			if peelSums[key] == nil {
				peelSums[key] = map[int64]bool{}
			}
			peelSums[key][r.Count] = true
		}
		if strings.HasPrefix(r.Algorithm, "family") {
			if familyCounts[r.Dataset] == nil {
				familyCounts[r.Dataset] = map[int64]bool{}
			}
			familyCounts[r.Dataset][r.Count] = true
		}
		if strings.HasPrefix(r.Algorithm, "estimate/") {
			if r.Invariant != "fixed" && r.Invariant != "adaptive" && r.Invariant != "stream" {
				t.Fatalf("estimate row with unknown budget label: %+v", r)
			}
			if r.Samples <= 0 || r.Estimate < 0 || r.Speedup <= 0 || r.RelErr < 0 {
				t.Fatalf("malformed estimate row: %+v", r)
			}
		}
	}
	for _, want := range []string{
		"family/seq", "family/arena", "family/parallel",
		"estimate/vertices", "estimate/edges", "estimate/reservoir",
		"peel-tip/delta", "peel-tip/recount", "peel-wing/delta", "peel-wing/recount",
	} {
		if !algos[want] {
			t.Fatalf("missing algorithm %q in results", want)
		}
	}
	for key, sums := range peelSums {
		if len(sums) != 1 {
			t.Fatalf("peel checksum disagreement for %s: %v", key, sums)
		}
	}
	for ds, counts := range familyCounts {
		if len(counts) != 1 {
			t.Fatalf("family rows disagree on %s: %v", ds, counts)
		}
	}
	if len(familyCounts) == 0 {
		t.Fatal("no family rows in results")
	}
	// Plain -json must not print the text tables.
	if strings.Contains(out, "== ") {
		t.Fatal("-json alone still printed text tables")
	}
}

func TestRunJSONFileWithTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var sb strings.Builder
	if err := run([]string{"-json", path, "-table", "fig9", "-scale", "400"}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("written file is not valid JSON")
	}
	// Explicit -table keeps the text output too.
	if !strings.Contains(sb.String(), "Fig 9") {
		t.Fatal("-json with explicit -table dropped the table output")
	}
}
