package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"butterfly/serveapi"
)

// famShape is what a /metrics consumer relies on for one family: its
// TYPE and the names of its labels (sorted, comma-joined; histogram
// `le` excluded).
type famShape struct{ typ, labels string }

// goldenFamilies is every family bfserved exposed before its metrics
// moved onto one obsv registry, with its TYPE and label names.
// scripts/qos_smoke.sh, bfload's cluster report, perfbench's scrape
// and the CI greps read these names; none may change.
var goldenFamilies = map[string]famShape{
	"bfserved_cache_entries":         {"gauge", ""},
	"bfserved_cache_hit_ratio":       {"gauge", ""},
	"bfserved_cache_hits_total":      {"counter", ""},
	"bfserved_cache_misses_total":    {"counter", ""},
	"bfserved_coalesced_total":       {"counter", ""},
	"bfserved_estimates_total":       {"counter", "kind"},
	"bfserved_graph_butterflies":     {"gauge", "graph"},
	"bfserved_graph_edges":           {"gauge", "graph"},
	"bfserved_graph_version":         {"gauge", "graph"},
	"bfserved_in_flight":             {"gauge", ""},
	"bfserved_ingest_edges_seen":     {"gauge", "graph"},
	"bfserved_ingest_edges_total":    {"counter", ""},
	"bfserved_legacy_requests_total": {"counter", "route"},
	"bfserved_open_ingests":          {"gauge", ""},
	"bfserved_queue_depth":           {"gauge", ""},
	"bfserved_request_seconds":       {"histogram", ""},
	"bfserved_requests_total":        {"counter", "code,route"},
	"bfserved_response_bytes":        {"histogram", ""},
	"bfserved_route_seconds":         {"histogram", "api,route"},
	"bfserved_shed_total":            {"counter", ""},
	"bfserved_slow_queries_total":    {"counter", ""},
	"bfserved_stage_seconds":         {"histogram", "stage"},
	"bfserved_tenant_admitted_total": {"counter", "tenant"},
	"bfserved_tenant_evicted_total":  {"counter", "tenant"},
	"bfserved_tenant_queue_depth":    {"gauge", "tenant"},
	"bfserved_tenant_seconds":        {"histogram", "tenant"},
	"bfserved_tenant_shed_total":     {"counter", "reason,tenant"},
	"bfserved_tenant_slo_burn":       {"gauge", "tenant"},
	"bfserved_tenant_weight":         {"gauge", "tenant"},
}

// goldenStoreFamilies are exposed only when the server runs with a
// store.
var goldenStoreFamilies = map[string]famShape{
	"bfserved_checkpoint_errors_total": {"counter", ""},
	"bfserved_checkpoints_total":       {"counter", ""},
	"bfserved_wal_bytes":               {"gauge", ""},
	"bfserved_wal_fsyncs_total":        {"counter", ""},
}

// parseExposition maps each family of a Prometheus text exposition to
// its TYPE and the label names its series carry. Every series line must
// belong to a family announced by a TYPE line, and all series of a
// family must carry the same label names.
func parseExposition(t *testing.T, text string) map[string]famShape {
	t.Helper()
	out := map[string]famShape{}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(typ, " ")
			out[name] = famShape{typ: kind}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labelText, _ := strings.Cut(series, "{")
		if _, ok := out[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok {
					if _, known := out[base]; known {
						name = base
						break
					}
				}
			}
		}
		shape, ok := out[name]
		if !ok {
			t.Fatalf("series %q has no TYPE line", line)
		}
		var labels []string
		for _, pair := range strings.Split(strings.TrimSuffix(labelText, "}"), ",") {
			if k, _, ok := strings.Cut(pair, "="); ok && k != "le" {
				labels = append(labels, k)
			}
		}
		sort.Strings(labels)
		joined := strings.Join(labels, ",")
		if seen[name] && shape.labels != joined {
			t.Fatalf("family %s mixes label sets %q and %q", name, shape.labels, joined)
		}
		seen[name] = true
		out[name] = famShape{typ: shape.typ, labels: joined}
	}
	return out
}

// mustStatus fires one raw request and fails unless it answers want.
func mustStatus(t *testing.T, want int, method, url, body string) []byte {
	t.Helper()
	resp, b := rawDo(t, method, url, body)
	if resp.StatusCode != want {
		t.Fatalf("%s %s = %d, want %d\n%s", method, url, resp.StatusCode, want, b)
	}
	return b
}

// TestMetricsGoldenExposition drives one request per route family
// against K₁₀₀,₁₀₀ and pins the /metrics contract: every family keeps
// its name, TYPE and label names, integer series print as exact
// integers, and only a durable server prints the durability families.
func TestMetricsGoldenExposition(t *testing.T) {
	t.Run("in-memory", func(t *testing.T) {
		_, c := newTestServer(t, Config{})
		checkGoldenExposition(t, urlOf(t, c), false)
	})
	t.Run("durable", func(t *testing.T) {
		_, c, _ := newDurableServer(t, t.TempDir())
		checkGoldenExposition(t, urlOf(t, c), true)
	})
}

func checkGoldenExposition(t *testing.T, base string, durable bool) {
	t.Helper()
	for _, rq := range []serveapi.RegisterRequest{
		{Name: "k100", M: 100, N: 100, Edges: completeEdges(100, 100)},
		{Name: "k44", M: 4, N: 4, Edges: completeEdges(4, 4)},
		{Name: "gone", M: 2, N: 2, Edges: [][2]int{{0, 0}}},
	} {
		body, err := json.Marshal(rq)
		if err != nil {
			t.Fatal(err)
		}
		mustStatus(t, http.StatusCreated, "POST", base+"/v1/graphs", string(body))
	}
	checkpointCode := http.StatusBadRequest
	if durable {
		checkpointCode = http.StatusOK
	}
	for _, rq := range []struct {
		want               int
		method, path, body string
	}{
		{200, "GET", "/v1/healthz", ""},
		{200, "GET", "/v1/graphs", ""},
		{200, "GET", "/v1/graphs/k100", ""},
		{200, "POST", "/v1/graphs/k100/count", `{}`},
		{200, "POST", "/v1/graphs/k100/count", `{}`},
		{200, "POST", "/v1/graphs/k100/count?debug=true", `{}`},
		{200, "POST", "/graphs/k100/count", `{}`},
		{200, "POST", "/v1/graphs/k44/vertex-counts", `{}`},
		{200, "POST", "/v1/graphs/k44/edge-supports", `{}`},
		{200, "POST", "/v1/graphs/k44/estimate", `{"strategy":"edges","samples":50,"seed":1}`},
		{200, "POST", "/v1/graphs/k44/peel", `{"mode":"tip","k":1}`},
		{200, "POST", "/v1/graphs/k44/mutate", `{"deletes":[[0,0]]}`},
		{200, "GET", "/v1/internal/partial/k44", ""},
		{200, "GET", "/v1/admin/tenants", ""},
		{checkpointCode, "POST", "/v1/admin/checkpoint", ""},
		{204, "DELETE", "/v1/graphs/gone", ""},
		{201, "POST", "/v1/ingest", `{"name":"streaming","m":4,"n":4,"reservoir":64,"seed":1}`},
		{200, "POST", "/v1/ingest/streaming/edges", "[0,0]\n[0,1]\n"},
		{200, "GET", "/v1/ingest/streaming", ""},
		{201, "POST", "/v1/ingest", `{"name":"sealed","m":2,"n":2,"reservoir":8,"seed":1}`},
		{200, "POST", "/v1/ingest/sealed/seal", ""},
		{201, "POST", "/v1/ingest", `{"name":"aborted","m":2,"n":2,"reservoir":8,"seed":1}`},
		{204, "DELETE", "/v1/ingest/aborted", ""},
		{404, "GET", "/v1/graphs/nope", ""},
	} {
		mustStatus(t, rq.want, rq.method, base+rq.path, rq.body)
	}

	text := string(mustStatus(t, http.StatusOK, "GET", base+"/metrics", ""))
	got := parseExposition(t, text)
	for name, want := range goldenFamilies {
		if have, ok := got[name]; !ok {
			t.Errorf("family %s missing", name)
		} else if have != want {
			t.Errorf("family %s = %+v, want %+v", name, have, want)
		}
	}
	for name, want := range goldenStoreFamilies {
		have, ok := got[name]
		switch {
		case !durable && ok:
			t.Errorf("in-memory server exposes %s", name)
		case durable && !ok:
			t.Errorf("family %s missing", name)
		case durable && have != want:
			t.Errorf("family %s = %+v, want %+v", name, have, want)
		}
	}
	want := []string{
		"\nbfserved_graph_butterflies{graph=\"k100\"} 24502500\n",
		"\nbfserved_graph_edges{graph=\"k100\"} 10000\n",
		"\nbfserved_graph_version{graph=\"k44\"} 2\n",
		"\nbfserved_open_ingests 1\n",
		"\nbfserved_ingest_edges_seen{graph=\"streaming\"} 2\n",
		"\nbfserved_requests_total{route=\"count\",code=\"200\"} 4\n",
		"\nbfserved_requests_total{route=\"graphs.info\",code=\"404\"} 1\n",
		"\nbfserved_legacy_requests_total{route=\"count\"} 1\n",
		"\nbfserved_in_flight 0\n",
		"\nbfserved_tenant_weight{tenant=\"default\"} 1\n",
	}
	if durable {
		want = append(want, "\nbfserved_checkpoints_total 1\n", "\nbfserved_checkpoint_errors_total 0\n")
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(w))
		}
	}
	// Everything but histogram sums and the two ratio gauges counts
	// something, and prints as a plain integer.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_sum") || name == "bfserved_cache_hit_ratio" || name == "bfserved_tenant_slo_burn" {
			continue
		}
		if _, err := strconv.ParseUint(val, 10, 64); err != nil {
			t.Errorf("integer series printed as %q: %s", val, line)
		}
	}
}

// stageTotals reads bfserved_stage_seconds_count and _sum for one
// stage.
func stageTotals(t *testing.T, base, stage string) (n int, sum float64) {
	t.Helper()
	text := string(mustStatus(t, http.StatusOK, "GET", base+"/metrics", ""))
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, fmt.Sprintf("bfserved_stage_seconds_count{stage=%q} ", stage)); ok {
			n, _ = strconv.Atoi(v)
		}
		if v, ok := strings.CutPrefix(line, fmt.Sprintf("bfserved_stage_seconds_sum{stage=%q} ", stage)); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		}
	}
	return n, sum
}

// TestOneAdmissionStagePerRequest: a query records one top-level
// admission stage covering the quota charge and the slot wait. In a
// debug trace no top-level stage repeats; one cache miss raises the
// admission count by exactly one; and a coalesced follower records one
// stage too, which excludes its wait on the leader.
func TestOneAdmissionStagePerRequest(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, NoQueue: true})
	base := urlOf(t, c)
	info := registerK44(t, c)

	var cr serveapi.CountResponse
	if err := json.Unmarshal(mustStatus(t, http.StatusOK, "POST", base+"/v1/graphs/k44/count?debug=true", `{}`), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Trace == nil {
		t.Fatal("debug count carries no trace")
	}
	var names []string
	seen := map[string]bool{}
	for _, sp := range cr.Trace.Children {
		names = append(names, sp.Name)
		if seen[sp.Name] {
			t.Errorf("top-level stage %q repeats: %v", sp.Name, names)
		}
		seen[sp.Name] = true
	}
	if !seen["admission"] {
		t.Errorf("debug count has no admission stage: %v", names)
	}

	before, _ := stageTotals(t, base, "admission")
	mustStatus(t, http.StatusOK, "POST", base+"/v1/graphs/k44/vertex-counts", `{}`)
	if n, _ := stageTotals(t, base, "admission"); n-before != 1 {
		t.Fatalf("one vertex-counts miss recorded %d admission stages, want 1", n-before)
	}

	// A herd of identical counts: the leader holds the kernel for hold
	// while the followers wait on its flight.
	const herd, hold = 4, 300 * time.Millisecond
	gate := make(chan struct{})
	s.computeHook = func(ctx context.Context) { <-gate }
	before, sumBefore := stageTotals(t, base, "admission")
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mustStatus(t, http.StatusOK, "POST", base+"/v1/graphs/k44/count", `{}`)
		}()
	}
	key := fmt.Sprintf("v1|k44|v%d|%s", info.Version, keyCount)
	waitFor(t, func() bool { return s.flights.Waiting(key) == herd })
	time.Sleep(hold)
	close(gate)
	wg.Wait()
	n, sum := stageTotals(t, base, "admission")
	if n-before != herd {
		t.Fatalf("%d coalesced counts recorded %d admission stages, want %d", herd, n-before, herd)
	}
	if d := time.Duration((sum - sumBefore) * float64(time.Second)); d >= hold {
		t.Fatalf("admission stages of the herd sum to %v: a follower's wait on the leader was counted", d)
	}
}
