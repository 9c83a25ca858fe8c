package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"butterfly/client"
	"butterfly/serveapi"
)

// completeEdges returns the edge list of the complete bipartite graph
// K_{m,n} (C(m,2)·C(n,2) butterflies).
func completeEdges(m, n int) [][2]int {
	edges := make([][2]int, 0, m*n)
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// newTestServer spins up a Server behind httptest and returns it with
// a client pointed at it.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL)
}

func registerK44(t *testing.T, c *client.Client) serveapi.GraphInfo {
	t.Helper()
	info, err := c.Register(context.Background(), serveapi.RegisterRequest{
		Name: "k44", M: 4, N: 4, Edges: completeEdges(4, 4),
	})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	return info
}

func TestRegisterAndCount(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	info := registerK44(t, c)
	if info.Version != 1 || info.NumV1 != 4 || info.NumV2 != 4 || info.NumEdges != 16 {
		t.Fatalf("bad register info: %+v", info)
	}
	if info.Butterflies != 36 { // C(4,2)^2
		t.Fatalf("register butterflies = %d, want 36", info.Butterflies)
	}

	// Every algorithm and family member agrees.
	for _, req := range []serveapi.CountRequest{
		{},
		{Invariant: 3},
		{Invariant: 7, Threads: 2},
		{Algorithm: "wedge-hash"},
		{Algorithm: "spgemm", Threads: 2},
		{Algorithm: "sort-aggregate"},
		{Algorithm: "vertex-priority", Threads: 2},
		{Order: "degree-desc", BlockSize: 2},
	} {
		resp, err := c.Count(ctx, "k44", req)
		if err != nil {
			t.Fatalf("count %+v: %v", req, err)
		}
		if resp.Butterflies != 36 || resp.Version != 1 || resp.Graph != "k44" {
			t.Fatalf("count %+v = %+v, want 36 @ v1", req, resp)
		}
	}

	// Graph listing and info.
	graphs, err := c.Graphs(ctx)
	if err != nil || len(graphs) != 1 || graphs[0].Name != "k44" {
		t.Fatalf("graphs = %+v, %v", graphs, err)
	}
	if _, err := c.GraphInfo(ctx, "k44"); err != nil {
		t.Fatalf("info: %v", err)
	}
}

func TestQueryEndpoints(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)

	vc, err := c.VertexCounts(ctx, "k44", serveapi.VertexCountsRequest{Side: "v1", Top: 2})
	if err != nil {
		t.Fatalf("vertex-counts: %v", err)
	}
	// Each V1 vertex of K_{4,4} is in C(3,1)*C(4,2)=18 butterflies;
	// total = 2 * 36 = 72.
	if vc.Total != 72 || len(vc.Vertices) != 2 || vc.Vertices[0].Count != 18 {
		t.Fatalf("vertex-counts = %+v", vc)
	}

	es, err := c.EdgeSupports(ctx, "k44", serveapi.EdgeSupportsRequest{Top: 3})
	if err != nil {
		t.Fatalf("edge-supports: %v", err)
	}
	if es.Total != 4*36 || len(es.Edges) != 3 || es.Edges[0].Count != 9 {
		t.Fatalf("edge-supports = %+v", es)
	}

	est, err := c.Estimate(ctx, "k44", serveapi.EstimateRequest{Strategy: "edges", Samples: 200, Seed: 7})
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if est.Estimate <= 0 {
		t.Fatalf("estimate = %+v", est)
	}

	pl, err := c.Peel(ctx, "k44", serveapi.PeelRequest{Mode: "tip", K: 1, Side: "v1"})
	if err != nil {
		t.Fatalf("peel: %v", err)
	}
	if pl.EdgesRemaining != 16 || pl.Butterflies != 36 {
		t.Fatalf("peel = %+v", pl)
	}
	// Nothing is below k=1 in K(4,4), so the delta cascade settles in
	// zero rounds — the engine name still reports the default.
	if pl.Engine != "delta" || pl.Rounds != 0 {
		t.Fatalf("peel should default to the delta engine: %+v", pl)
	}
	// The recount engine answers identically (confluence) and reports
	// its own engine name and round count.
	plr, err := c.Peel(ctx, "k44", serveapi.PeelRequest{Mode: "tip", K: 1, Side: "v1", Engine: "recount"})
	if err != nil {
		t.Fatalf("peel recount: %v", err)
	}
	if plr.EdgesRemaining != pl.EdgesRemaining || plr.Butterflies != pl.Butterflies {
		t.Fatalf("engines disagree: delta %+v recount %+v", pl, plr)
	}
	if plr.Engine != "recount" || plr.Rounds < 1 {
		t.Fatalf("peel recount = %+v", plr)
	}
	// k beyond every tip number peels everything.
	pl, err = c.Peel(ctx, "k44", serveapi.PeelRequest{Mode: "wing", K: 1000})
	if err != nil {
		t.Fatalf("peel wing: %v", err)
	}
	if pl.EdgesRemaining != 0 || pl.Butterflies != 0 {
		t.Fatalf("peel wing k=1000 = %+v", pl)
	}
	if pl.Engine != "delta" || pl.Rounds < 1 {
		t.Fatalf("peeling everything should report at least one delta round: %+v", pl)
	}
}

func TestBadInputs(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)

	wantStatus := func(err error, want int, what string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: err = %v, want APIError %d", what, err, want)
		}
		if apiErr.Status != want {
			t.Fatalf("%s: status = %d (%s), want %d", what, apiErr.Status, apiErr.Message, want)
		}
	}

	_, err := c.Count(ctx, "nope", serveapi.CountRequest{})
	wantStatus(err, http.StatusNotFound, "unknown graph")
	if !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("404 should unwrap to ErrNotFound, got %v", err)
	}

	_, err = c.Count(ctx, "k44", serveapi.CountRequest{Algorithm: "bogus"})
	wantStatus(err, http.StatusBadRequest, "bad algorithm")
	_, err = c.Count(ctx, "k44", serveapi.CountRequest{Invariant: 11})
	wantStatus(err, http.StatusBadRequest, "bad invariant")
	_, err = c.Count(ctx, "k44", serveapi.CountRequest{Algorithm: "spgemm", Invariant: 2})
	wantStatus(err, http.StatusBadRequest, "invariant with non-family")
	_, err = c.VertexCounts(ctx, "k44", serveapi.VertexCountsRequest{Side: "v3"})
	wantStatus(err, http.StatusBadRequest, "bad side")
	_, err = c.Estimate(ctx, "k44", serveapi.EstimateRequest{Strategy: "edges", Samples: -1})
	wantStatus(err, http.StatusBadRequest, "bad samples")
	_, err = c.Estimate(ctx, "k44", serveapi.EstimateRequest{Strategy: "guess"})
	wantStatus(err, http.StatusBadRequest, "bad strategy")
	_, err = c.Peel(ctx, "k44", serveapi.PeelRequest{Mode: "fin", K: 1})
	wantStatus(err, http.StatusBadRequest, "bad mode")
	_, err = c.Peel(ctx, "k44", serveapi.PeelRequest{Mode: "tip", K: -1})
	wantStatus(err, http.StatusBadRequest, "negative k")
	_, err = c.Peel(ctx, "k44", serveapi.PeelRequest{Mode: "tip", K: 1, Engine: "heapsort"})
	wantStatus(err, http.StatusBadRequest, "bad engine")
	_, err = c.Mutate(ctx, "k44", serveapi.MutateRequest{Inserts: [][2]int{{9, 0}}})
	wantStatus(err, http.StatusBadRequest, "out-of-range insert")
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: "k44", M: 2, N: 2, Edges: completeEdges(2, 2)})
	wantStatus(err, http.StatusConflict, "duplicate register")
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: ""})
	wantStatus(err, http.StatusBadRequest, "empty name")
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: "p", Path: "/etc/passwd"})
	wantStatus(err, http.StatusBadRequest, "path load disabled")
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: "d", Dataset: "no-such-dataset"})
	wantStatus(err, http.StatusBadRequest, "unknown dataset")
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: "d", Dataset: "github", Scale: -1})
	wantStatus(err, http.StatusBadRequest, "negative scale")

	// Malformed JSON body.
	s, _ := newTestServer(t, Config{})
	_ = s
	resp, err := http.Post(urlOf(t, c)+"/graphs/k44/count", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

// urlOf digs the base URL back out of the client (tests only).
func urlOf(t *testing.T, c *client.Client) string {
	t.Helper()
	return c.BaseURL()
}

func TestDeadlineExceeded504(t *testing.T) {
	s, c := newTestServer(t, Config{})
	registerK44(t, c)
	// The hook parks the request until its deadline fires, making the
	// 504 path deterministic regardless of machine speed.
	s.computeHook = func(ctx context.Context) { <-ctx.Done() }

	_, err := c.Count(context.Background(), "k44", serveapi.CountRequest{TimeoutMillis: 30})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want 504", err)
	}
	if !errors.Is(err, client.ErrDeadline) {
		t.Fatalf("504 should unwrap to ErrDeadline, got %v", err)
	}

	// Same for an abandoned-kernel endpoint.
	_, err = c.Peel(context.Background(), "k44", serveapi.PeelRequest{Mode: "tip", K: 1, TimeoutMillis: 30})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("peel err = %v, want 504", err)
	}
}

func TestLoadShedding429(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, NoQueue: true})
	registerK44(t, c)
	ctx := context.Background()

	entered := make(chan struct{})
	gate := make(chan struct{})
	s.computeHook = func(ctx context.Context) {
		select {
		case entered <- struct{}{}:
			<-gate
		default:
			// Later requests (after the gate opens) pass straight through.
		}
	}

	// Request A occupies the only slot...
	aDone := make(chan error, 1)
	go func() {
		_, err := c.Count(ctx, "k44", serveapi.CountRequest{})
		aDone <- err
	}()
	<-entered

	// ...so request B (different cache key — estimates are never
	// pre-warmed here) is shed.
	_, err := c.Estimate(ctx, "k44", serveapi.EstimateRequest{Strategy: "edges", Samples: 10, Seed: 1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429", err)
	}
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("429 should unwrap to ErrOverloaded, got %v", err)
	}

	close(gate)
	if err := <-aDone; err != nil {
		t.Fatalf("request A: %v", err)
	}
}

func TestResultCache(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)

	get := func() string {
		resp, err := http.Post(urlOf(t, c)+"/graphs/k44/count", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Cache")
	}
	if xc := get(); xc != "miss" {
		t.Fatalf("first count X-Cache = %q, want miss", xc)
	}
	if xc := get(); xc != "hit" {
		t.Fatalf("second count X-Cache = %q, want hit", xc)
	}

	// The count key is shared across equivalent algorithm choices —
	// an Inv5 request hits the cache warmed by the auto request.
	resp, err := http.Post(urlOf(t, c)+"/graphs/k44/count", "application/json", strings.NewReader(`{"invariant":5,"threads":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Fatalf("equivalent-query X-Cache = %q, want hit", xc)
	}

	// A mutation bumps the version, so the next count misses.
	if _, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{Deletes: [][2]int{{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	if xc := get(); xc != "miss" {
		t.Fatalf("post-mutation X-Cache = %q, want miss", xc)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}
	s.Drain()
	_, err = c.Health(ctx)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining health err = %v, want 503", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)
	if _, err := c.Count(ctx, "k44", serveapi.CountRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, "k44", serveapi.CountRequest{}); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bfserved_requests_total{route="count",code="200"} 2`,
		"bfserved_request_seconds_bucket{le=\"+Inf\"}",
		"bfserved_request_seconds_count",
		"bfserved_cache_hits_total 1",
		"bfserved_cache_misses_total 1",
		"bfserved_cache_hit_ratio 0.5",
		"bfserved_queue_depth 0",
		"bfserved_in_flight",
		"bfserved_shed_total 0",
		`bfserved_graph_version{graph="k44"} 1`,
		`bfserved_graph_edges{graph="k44"} 16`,
		`bfserved_graph_butterflies{graph="k44"} 36`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestDropGraph(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)
	if err := c.Drop(ctx, "k44"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, "k44", serveapi.CountRequest{}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("count after drop = %v, want ErrNotFound", err)
	}
	if err := c.Drop(ctx, "k44"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("double drop = %v, want ErrNotFound", err)
	}
}

func TestLimiterQueueHonorsDeadline(t *testing.T) {
	l := newLimiter(1, 8)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire = %v, want DeadlineExceeded", err)
	}
	l.release()
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", []byte("3")) // evicts b (LRU)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should survive")
	}
	hits, misses, size := c.stats()
	if size != 2 || hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, size)
	}
}

// TestCountRejectsKernelKnobs: the kernel's tuning knobs are not part
// of the wire format, so a count request naming one answers 400 under
// the strict body decoder instead of pinning a slow kernel.
func TestCountRejectsKernelKnobs(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := urlOf(t, c)
	registerK44(t, c)
	for _, body := range []string{`{"hub":"always"}`, `{"agg":"sort"}`} {
		resp, _ := rawDo(t, "POST", base+"/v1/graphs/k44/count", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestResultCacheSharedAcrossAlgorithms: the count is invariant
// across algorithms, so every count request of a graph version shares
// one cache entry — a baseline-algorithm count after a family count is
// a hit, and so is any other knob combination.
func TestResultCacheSharedAcrossAlgorithms(t *testing.T) {
	_, c := newTestServer(t, Config{})
	registerK44(t, c)

	post := func(body string) string {
		resp, err := http.Post(urlOf(t, c)+"/graphs/k44/count", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cache")
	}
	if xc := post(`{}`); xc != "miss" {
		t.Fatalf("first family count X-Cache = %q, want miss", xc)
	}
	for _, body := range []string{
		`{"algorithm":"wedge-hash"}`,
		`{"algorithm":"spgemm","threads":2}`,
		`{"invariant":5,"threads":2,"order":"degree-desc"}`,
	} {
		if xc := post(body); xc != "hit" {
			t.Fatalf("%s after a family count: X-Cache = %q, want hit", body, xc)
		}
	}
}
