package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"butterfly/serveapi"
)

// rawPost fires a raw POST (bypassing the /v1-only client) and returns
// the response with its body read.
func rawDo(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// decodeEnvelope asserts the body is a /v1 error envelope and returns
// its detail.
func decodeEnvelope(t *testing.T, body []byte) serveapi.ErrorDetail {
	t.Helper()
	var env serveapi.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an envelope: %v\nbody: %s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env.Error
}

// TestV1ErrorEnvelope pins the uniform /v1 error surface: every 4xx
// answers {error:{code,message}} with the right machine code, while
// the legacy alias keeps the old {status,error} body and advertises
// its deprecation.
func TestV1ErrorEnvelope(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	registerK44(t, c)

	t.Run("not_found", func(t *testing.T) {
		resp, body := rawDo(t, "GET", base+"/v1/graphs/nope", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if det := decodeEnvelope(t, body); det.Code != serveapi.CodeNotFound {
			t.Fatalf("code = %q, want %q", det.Code, serveapi.CodeNotFound)
		}
	})

	t.Run("invalid_argument", func(t *testing.T) {
		resp, body := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{"algorithm":"bogus"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if det := decodeEnvelope(t, body); det.Code != serveapi.CodeInvalidArgument {
			t.Fatalf("code = %q, want %q", det.Code, serveapi.CodeInvalidArgument)
		}
	})

	t.Run("already_exists", func(t *testing.T) {
		resp, body := rawDo(t, "POST", base+"/v1/graphs",
			`{"name":"k44","m":2,"n":2,"edges":[[0,0]]}`)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("status = %d, want 409", resp.StatusCode)
		}
		if det := decodeEnvelope(t, body); det.Code != serveapi.CodeAlreadyExists {
			t.Fatalf("code = %q, want %q", det.Code, serveapi.CodeAlreadyExists)
		}
	})

	t.Run("legacy keeps old shape and Deprecation header", func(t *testing.T) {
		resp, body := rawDo(t, "GET", base+"/graphs/nope", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "true" {
			t.Fatalf("legacy response missing Deprecation header")
		}
		var legacy serveapi.Error
		if err := json.Unmarshal(body, &legacy); err != nil || legacy.Status != 404 || legacy.Message == "" {
			t.Fatalf("legacy body = %s (err %v), want {status,error}", body, err)
		}
		if bytes.Contains(body, []byte(`"code"`)) {
			t.Fatalf("legacy body leaked the envelope: %s", body)
		}
	})

	t.Run("v1 has no Deprecation header", func(t *testing.T) {
		resp, _ := rawDo(t, "GET", base+"/v1/graphs", "")
		if resp.Header.Get("Deprecation") != "" {
			t.Fatalf("/v1 response carries Deprecation header")
		}
	})
}

// TestOverloadedEnvelope checks the 429 path: envelope code
// "overloaded" with a retry_after_ms hint and a Retry-After header.
func TestOverloadedEnvelope(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, NoQueue: true})
	base := urlOf(t, c)
	registerK44(t, c)

	hold := make(chan struct{})
	release := make(chan struct{})
	s.computeHook = func(ctx context.Context) {
		close(hold)
		<-release
	}
	defer close(release)

	done := make(chan struct{})
	go func() {
		defer close(done)
		rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	}()
	<-hold

	// The probe must NOT share the leader's cache key: every count
	// coalesces onto one flight (their bodies are byte-interchangeable),
	// so a different query forces a distinct execution that actually
	// hits the full queue.
	resp, body := rawDo(t, "POST", base+"/v1/graphs/k44/vertex-counts", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	det := decodeEnvelope(t, body)
	if det.Code != serveapi.CodeOverloaded {
		t.Fatalf("code = %q, want %q", det.Code, serveapi.CodeOverloaded)
	}
	if det.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", det.RetryAfterMS)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After header")
	}
	release <- struct{}{}
	<-done
}

// countSpans counts named spans in a wire trace (root included).
func countSpans(tr *serveapi.TraceSpan) int {
	if tr == nil {
		return 0
	}
	n := 0
	var walk func(serveapi.TraceSpan)
	walk = func(s serveapi.TraceSpan) {
		if s.Name != "" {
			n++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(*tr)
	return n
}

func stageNames(tr *serveapi.TraceSpan) map[string]bool {
	names := map[string]bool{}
	if tr == nil {
		return names
	}
	var walk func(serveapi.TraceSpan)
	walk = func(s serveapi.TraceSpan) {
		names[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(*tr)
	return names
}

// TestDebugTraces: ?debug=true on /v1 attaches the span tree to both
// success and error responses, with at least three named stages and
// the kernel's algorithm sub-stages nested under "kernel".
func TestDebugTraces(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	registerK44(t, c)

	t.Run("count 2xx", func(t *testing.T) {
		resp, body := rawDo(t, "POST", base+"/v1/graphs/k44/count?debug=true", `{}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200\n%s", resp.StatusCode, body)
		}
		var cr serveapi.CountResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Butterflies != 36 {
			t.Fatalf("butterflies = %d, want 36", cr.Butterflies)
		}
		if cr.Trace == nil {
			t.Fatalf("debug response missing trace: %s", body)
		}
		if n := countSpans(cr.Trace); n < 3 {
			t.Fatalf("trace has %d named spans, want >= 3: %s", n, body)
		}
		names := stageNames(cr.Trace)
		for _, want := range []string{"request", "parse", "registry", "admission", "kernel", "core.count"} {
			if !names[want] {
				t.Fatalf("trace missing stage %q; have %v", want, names)
			}
		}
	})

	t.Run("peel 2xx has engine stages", func(t *testing.T) {
		resp, body := rawDo(t, "POST", base+"/v1/graphs/k44/peel?debug=true", `{"mode":"tip","k":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200\n%s", resp.StatusCode, body)
		}
		var pr serveapi.PeelResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		names := stageNames(pr.Trace)
		if !names["kernel"] || !names["peel.seed"] {
			t.Fatalf("peel trace missing kernel/peel.seed stages; have %v", names)
		}
	})

	t.Run("error carries trace", func(t *testing.T) {
		resp, body := rawDo(t, "GET", base+"/v1/graphs/nope?debug=true", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		det := decodeEnvelope(t, body)
		if det.Trace == nil {
			t.Fatalf("debug error missing trace: %s", body)
		}
		if n := countSpans(det.Trace); n < 3 {
			t.Fatalf("error trace has %d named spans, want >= 3: %s", n, body)
		}
	})

	t.Run("non-debug has no trace", func(t *testing.T) {
		_, body := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
		if bytes.Contains(body, []byte(`"trace"`)) {
			t.Fatalf("non-debug response leaked a trace: %s", body)
		}
	})

	t.Run("debug ignored on legacy surface", func(t *testing.T) {
		_, body := rawDo(t, "POST", base+"/graphs/k44/count?debug=true", `{}`)
		if bytes.Contains(body, []byte(`"trace"`)) {
			t.Fatalf("legacy response honored debug: %s", body)
		}
	})
}

// TestCacheIsolation pins the cache-key fix: legacy and /v1 responses
// are cached under separate keys, and ?debug=true bypasses the cache
// in both directions (a debug response is neither served from nor
// stored into the cache).
func TestCacheIsolation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	registerK44(t, c)

	// Warm the /v1 entry.
	r1, _ := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first /v1 count X-Cache = %q, want miss", got)
	}
	r2, _ := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second /v1 count X-Cache = %q, want hit", got)
	}

	// The legacy surface must not see the /v1 entry.
	r3, _ := rawDo(t, "POST", base+"/graphs/k44/count", `{}`)
	if got := r3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first legacy count X-Cache = %q, want miss (separate key)", got)
	}
	r4, _ := rawDo(t, "POST", base+"/graphs/k44/count", `{}`)
	if got := r4.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second legacy count X-Cache = %q, want hit", got)
	}

	// Debug never reads the warm cache (the response must recompute and
	// carry a trace) and never writes (the cached body stays traceless).
	rd, body := rawDo(t, "POST", base+"/v1/graphs/k44/count?debug=true", `{}`)
	if got := rd.Header.Get("X-Cache"); got == "hit" {
		t.Fatalf("debug request served from cache")
	}
	if !bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatalf("debug response missing trace: %s", body)
	}
	r5, body5 := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	if got := r5.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("post-debug /v1 count X-Cache = %q, want hit", got)
	}
	if bytes.Contains(body5, []byte(`"trace"`)) {
		t.Fatalf("debug response poisoned the cache: %s", body5)
	}
}

// TestObsMetricsHistograms drives a concurrent mixed burst and then
// scrapes /metrics, asserting the new histogram families are present,
// their bucket counts are monotone in le, and +Inf matches _count —
// the Prometheus exposition invariants. Run under -race this also
// exercises the registry/histogram concurrency.
func TestObsMetricsHistograms(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	registerK44(t, c)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				switch (i + j) % 4 {
				case 0:
					rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
				case 1:
					rawDo(t, "GET", base+"/v1/healthz", "")
				case 2:
					rawDo(t, "GET", base+"/graphs/nope", "") // legacy 404
				case 3:
					rawDo(t, "POST", base+"/v1/graphs/k44/count?debug=true", `{}`)
				}
			}
		}(i)
	}
	wg.Wait()

	_, body := rawDo(t, "GET", base+"/metrics", "")
	text := string(body)
	for _, fam := range []string{
		"bfserved_route_seconds", "bfserved_stage_seconds",
		"bfserved_response_bytes", "bfserved_slow_queries_total",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("/metrics missing family %s", fam)
		}
	}
	// Both surfaces must appear as route labels.
	if !strings.Contains(text, `api="v1"`) || !strings.Contains(text, `api="legacy"`) {
		t.Fatalf("/metrics missing api labels:\n%s", text)
	}
	// The flat legacy metrics must survive untouched.
	for _, fam := range []string{"bfserved_requests_total", "bfserved_request_seconds_bucket"} {
		if !strings.Contains(text, fam) {
			t.Fatalf("/metrics lost legacy family %s", fam)
		}
	}
	checkHistogramInvariants(t, text, "bfserved_route_seconds")
	checkHistogramInvariants(t, text, "bfserved_stage_seconds")
}

// checkHistogramInvariants parses one histogram family out of the
// exposition text and asserts per-series bucket monotonicity and
// +Inf == count.
func checkHistogramInvariants(t *testing.T, text, fam string) {
	t.Helper()
	bucketRe := regexp.MustCompile(`^` + fam + `_bucket\{(.*)le="([^"]+)"\} (\d+)$`)
	countRe := regexp.MustCompile(`^` + fam + `_count(?:\{(.*)\})? (\d+)$`)
	type seriesState struct {
		last uint64
		inf  uint64
	}
	series := map[string]*seriesState{}
	counts := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			key := strings.TrimSuffix(m[1], ",")
			v, _ := strconv.ParseUint(m[3], 10, 64)
			st, ok := series[key]
			if !ok {
				st = &seriesState{}
				series[key] = st
			}
			if v < st.last {
				t.Fatalf("%s: bucket counts not monotone at %s", fam, line)
			}
			st.last = v
			if m[2] == "+Inf" {
				st.inf = v
			}
		} else if m := countRe.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseUint(m[2], 10, 64)
			counts[m[1]] = v
		}
	}
	if len(series) == 0 {
		t.Fatalf("%s: no bucket series found", fam)
	}
	var total uint64
	for key, st := range series {
		if st.inf == 0 && st.last == 0 {
			continue
		}
		total += st.inf
		_ = key
	}
	var countTotal uint64
	for _, v := range counts {
		countTotal += v
	}
	if total != countTotal {
		t.Fatalf("%s: sum of +Inf buckets %d != sum of counts %d", fam, total, countTotal)
	}
	if countTotal == 0 {
		t.Fatalf("%s: no observations recorded", fam)
	}
}

// syncBuffer is a concurrency-safe bytes.Buffer for the slow-query
// writer (requests finish concurrently).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLog runs with a zero threshold (log everything) and
// checks each emitted line is well-formed JSON carrying the route,
// status and a non-empty trace.
func TestSlowQueryLog(t *testing.T) {
	buf := &syncBuffer{}
	_, c := newTestServer(t, Config{SlowQueryLog: buf, SlowQueryThreshold: 0})
	base := urlOf(t, c)
	registerK44(t, c)

	rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	rawDo(t, "GET", base+"/v1/graphs/nope", "")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 { // register + count + 404
		t.Fatalf("slow log has %d lines, want >= 3:\n%s", len(lines), buf.String())
	}
	sawCount, saw404 := false, false
	for _, line := range lines {
		var e slowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("slow log line is not JSON: %v\n%s", err, line)
		}
		if e.Route == "" || e.TS == "" || e.Method == "" || e.Trace.Name == "" {
			t.Fatalf("slow log entry missing fields: %s", line)
		}
		if e.Route == "count" && e.Status == http.StatusOK && e.API == "v1" {
			sawCount = true
		}
		if e.Status == http.StatusNotFound {
			saw404 = true
		}
	}
	if !sawCount || !saw404 {
		t.Fatalf("slow log missing expected entries (count=%v, 404=%v):\n%s",
			sawCount, saw404, buf.String())
	}
}

// TestPprofGate: the profiling endpoints exist only when enabled.
func TestPprofGate(t *testing.T) {
	_, cOn := newTestServer(t, Config{EnablePprof: true})
	resp, _ := rawDo(t, "GET", urlOf(t, cOn)+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status = %d, want 200", resp.StatusCode)
	}

	_, cOff := newTestServer(t, Config{})
	resp, _ = rawDo(t, "GET", urlOf(t, cOff)+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status = %d, want 404", resp.StatusCode)
	}
}

// TestV1AndLegacyBodiesMatch: apart from errors and the debug knob,
// the two surfaces answer byte-identical bodies — the alias really is
// an alias.
func TestV1AndLegacyBodiesMatch(t *testing.T) {
	_, c := newTestServer(t, Config{NoCache: true})
	base := urlOf(t, c)
	registerK44(t, c)

	for _, p := range []string{"/graphs/k44/count", "/graphs/k44/vertex-counts", "/graphs/k44/edge-supports"} {
		_, legacy := rawDo(t, "POST", base+p, `{}`)
		_, v1 := rawDo(t, "POST", base+"/v1"+p, `{}`)
		// elapsed_ms can differ between runs; normalize it.
		norm := regexp.MustCompile(`"elapsed_ms":\d+`)
		l := norm.ReplaceAllString(string(legacy), `"elapsed_ms":0`)
		v := norm.ReplaceAllString(string(v1), `"elapsed_ms":0`)
		if l != v {
			t.Fatalf("surfaces diverge on %s:\nlegacy: %s\nv1:     %s", p, l, v)
		}
	}
}
