package obsv

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 25})
	// Prometheus `le` semantics: a value equal to an upper bound lands
	// in that bucket; just above goes to the next.
	h.Observe(1)           // bucket le=1
	h.Observe(1.0000001)   // bucket le=5
	h.Observe(5)           // bucket le=5
	h.Observe(25)          // bucket le=25
	h.Observe(26)          // +Inf
	h.Observe(-3)          // le=1 (below the first bound)
	h.Observe(math.Inf(1)) // +Inf

	cum, sum, count := h.snapshot()
	want := []uint64{2, 4, 5, 7} // cumulative
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if !math.IsInf(sum, 1) { // Inf observation dominates the sum
		t.Fatalf("sum = %g", sum)
	}
}

func TestHistogramSumAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 40)) // uniform 0..39
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 0.0
	for i := 0; i < 100; i++ {
		wantSum += float64(i % 40)
	}
	if h.Sum() != wantSum {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	// Uniform 0..39: the median is ~20, p99 near the top of the last
	// finite bucket. Interpolation is approximate; allow slack of one
	// bucket width.
	if q := h.Quantile(0.5); q < 10 || q > 30 {
		t.Fatalf("p50 = %g, want ~20", q)
	}
	if q := h.Quantile(0.99); q < 30 || q > 40 {
		t.Fatalf("p99 = %g, want ~40", q)
	}
	if q := h.Quantile(1); q > 40 {
		t.Fatalf("p100 = %g, want ≤ 40", q)
	}
	empty := NewHistogram([]float64{1})
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	// Everything in +Inf: quantiles clamp to the largest finite bound.
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("overflow quantile = %g, want 2", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-9 {
		t.Fatalf("sum = %g, want 8", h.Sum())
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("test_requests_total", "Requests.", "route", "code")
	lat := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1})
	reqs.With("count", "200").Add(2)
	reqs.With("peel", "404").Inc()
	lat.With().Observe(0.05)
	lat.With().Observe(0.5)
	lat.With().Observe(5)

	var b bytes.Buffer
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests.",
		"# TYPE test_requests_total counter",
		`test_requests_total{route="count",code="200"} 2`,
		`test_requests_total{route="peel",code="404"} 1`,
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_sum 5.55",
		"test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name: requests before seconds.
	if strings.Index(out, "test_requests_total") > strings.Index(out, "test_seconds") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestRegistryLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	v := r.Histogram("stage_seconds", "Stage latency.", []float64{1}, "stage")
	v.With("kernel").Observe(0.5)
	var b bytes.Buffer
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="kernel",le="1"} 1`,
		`stage_seconds_bucket{stage="kernel",le="+Inf"} 1`,
		`stage_seconds_sum{stage="kernel"} 0.5`,
		`stage_seconds_count{stage="kernel"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)
	if l.Should(5 * time.Millisecond) {
		t.Fatal("below threshold should not log")
	}
	if !l.Should(10 * time.Millisecond) {
		t.Fatal("at threshold should log")
	}
	l.Record(map[string]any{"route": "count", "elapsed_ms": 12.5})
	l.Record(map[string]any{"route": "peel", "elapsed_ms": 99.0})
	if l.Logged() != 2 {
		t.Fatalf("logged = %d", l.Logged())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"route":"count"`) {
		t.Fatalf("lines = %q", lines)
	}

	var nilLog *SlowLog
	if nilLog.Should(time.Hour) || nilLog.Logged() != 0 {
		t.Fatal("nil slowlog must be disabled")
	}
	nilLog.Record("ignored")
	if NewSlowLog(nil, 0) != nil {
		t.Fatal("nil writer should yield nil log")
	}
}

// TestRegistryFuncFamily: Func families are read at scrape time, sort
// their series by label values, print integer values as exact integers
// (no %g exponent) and float values in %g, and render their header even
// when collect reports no series.
func TestRegistryFuncFamily(t *testing.T) {
	r := NewRegistry()
	depth := int64(3)
	Func(r, "test_depth", "Depth.", "gauge", func() []Sample[int64] {
		return []Sample[int64]{{Value: depth}}
	})
	Func(r, "test_butterflies", "Butterflies.", "gauge", func() []Sample[int64] {
		return []Sample[int64]{{Labels: []string{"zeta"}, Value: 24502500}, {Labels: []string{"alpha"}, Value: 1 << 60}}
	}, "graph")
	Func(r, "test_hits_total", "Hits.", "counter", func() []Sample[uint64] {
		return []Sample[uint64]{{Value: 7}}
	})
	Func(r, "test_ratio", "Ratio.", "gauge", func() []Sample[float64] {
		return []Sample[float64]{{Labels: []string{"a", "x"}, Value: 0.5}}
	}, "tenant", "reason")
	Func(r, "test_empty", "Empty.", "gauge", func() []Sample[int] { return nil }, "graph")
	depth = 9

	var b bytes.Buffer
	r.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_depth gauge\ntest_depth 9\n",
		"# TYPE test_butterflies gauge\ntest_butterflies{graph=\"alpha\"} 1152921504606846976\ntest_butterflies{graph=\"zeta\"} 24502500\n",
		"# TYPE test_hits_total counter\ntest_hits_total 7\n",
		`test_ratio{tenant="a",reason="x"} 0.5`,
		"# HELP test_empty Empty.\n# TYPE test_empty gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	for name, fn := range map[string]func(){
		"histogramKind": func() {
			Func(r, "test_bad", "Bad.", "histogram", func() []Sample[int] { return nil })
		},
		"duplicate": func() {
			Func(r, "test_depth", "Again.", "gauge", func() []Sample[int] { return nil })
		},
		"labelArity": func() {
			r2 := NewRegistry()
			Func(r2, "test_arity", "Arity.", "gauge", func() []Sample[int] { return []Sample[int]{{Value: 1}} }, "graph")
			r2.WriteProm(&bytes.Buffer{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
