package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"butterfly"
	"butterfly/client"
	"butterfly/internal/serve"
	"butterfly/serveapi"
)

// spawnShards starts n in-process shard daemons.
func spawnShards(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	shards := make([]*httptest.Server, n)
	for i := range shards {
		s := serve.New(serve.Config{Role: "shard"})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		shards[i] = ts
	}
	return shards
}

// newRouter starts a router over the given shard URLs with fast test
// timeouts.
func newRouter(t *testing.T, urls []string, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	cfg.Shards = urls
	cfg.Retries = 1
	cfg.RetryBackoff = time.Millisecond
	if cfg.PartialTimeout == 0 {
		cfg.PartialTimeout = 5 * time.Second
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func urlsOf(shards []*httptest.Server) []string {
	out := make([]string, len(shards))
	for i, s := range shards {
		out[i] = s.URL
	}
	return out
}

// mustGen adapts a generator's (graph, error) return for inline use:
// mustGen(t)(butterfly.GenerateGnm(...)).
func mustGen(t *testing.T) func(*butterfly.Graph, error) *butterfly.Graph {
	return func(g *butterfly.Graph, err error) *butterfly.Graph {
		t.Helper()
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		return g
	}
}

// registerInline registers a graph through the router from an
// in-memory edge list, partitioned when p > 1.
func registerInline(t *testing.T, c *client.Client, name string, g *butterfly.Graph, p int) serveapi.GraphInfo {
	t.Helper()
	req := serveapi.RegisterRequest{Name: name, M: g.NumV1(), N: g.NumV2(), Edges: g.Edges()}
	if p > 1 {
		req.Partitions = p
	}
	info, err := c.Register(context.Background(), req)
	if err != nil {
		t.Fatalf("register %s (p=%d): %v", name, p, err)
	}
	return info
}

// TestScatterGatherDifferential is the correctness core of the
// cluster tier: for every generator shape and partitions ∈ {1, 2, 4},
// the router's answer must equal the single-node exact count.
func TestScatterGatherDifferential(t *testing.T) {
	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)
	ctx := context.Background()

	shapes := []struct {
		name string
		g    *butterfly.Graph
	}{
		{"power-law", mustGen(t)(butterfly.GeneratePowerLaw(120, 90, 900, 2.1, 2.3, 7))},
		{"gnm", mustGen(t)(butterfly.GenerateGnm(80, 60, 600, 11))},
		{"complete", mustGen(t)(butterfly.GenerateComplete(9, 8))},
	}
	for _, shape := range shapes {
		exact := shape.g.Count()
		for _, p := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s-p%d", shape.name, p)
			info := registerInline(t, c, name, shape.g, p)
			if p > 1 {
				if info.Partitions != p {
					t.Errorf("%s: register info partitions = %d, want %d", name, info.Partitions, p)
				}
				if info.Butterflies != exact {
					t.Errorf("%s: register info butterflies = %d, want %d", name, info.Butterflies, exact)
				}
			}
			cr, err := c.Count(ctx, name, serveapi.CountRequest{})
			if err != nil {
				t.Fatalf("%s: count: %v", name, err)
			}
			if cr.Butterflies != exact {
				t.Errorf("%s: router count = %d, single-node exact = %d", name, cr.Butterflies, exact)
			}
			if p > 1 && cr.Partitions != p {
				t.Errorf("%s: count partitions = %d, want %d", name, cr.Partitions, p)
			}
			// The estimate endpoint on a fully-live partitioned graph
			// is exact and not degraded.
			er, err := c.Estimate(ctx, name, serveapi.EstimateRequest{})
			if err != nil {
				t.Fatalf("%s: estimate: %v", name, err)
			}
			if p > 1 {
				if er.Degraded {
					t.Errorf("%s: estimate degraded with all partitions live", name)
				}
				if er.Estimate != float64(exact) {
					t.Errorf("%s: estimate = %v, want exact %d", name, er.Estimate, exact)
				}
			}
		}
	}
}

// TestKillShardDegrades asserts the failure contract: with one of two
// partitions unreachable, count answers 200 with the partition-
// sampling estimate — X-Degraded header, degraded:true, and exactly
// live × (P/L)².
func TestKillShardDegrades(t *testing.T) {
	shards := spawnShards(t, 2)
	rt, rts := newRouter(t, urlsOf(shards), Config{PartialTimeout: 2 * time.Second})
	c := client.New(rts.URL)

	g := mustGen(t)(butterfly.GenerateGnm(80, 60, 700, 3))
	registerInline(t, c, "kg", g, 2)

	homes := rt.partHomes(rt.currentRing(), "kg", 2)
	if homes[0] == homes[1] {
		t.Fatalf("expected 2 distinct homes, got %v", homes)
	}
	// Kill the shard hosting partition 1; partition 0 stays live.
	for _, ts := range shards {
		if ts.URL == homes[1] {
			ts.Close()
		}
	}
	// Expected estimate: butterflies whose both wedge centers are in
	// the surviving partition 0, scaled by (2/1)² = 4.
	b := butterfly.NewBuilder(g.NumV1(), g.NumV2())
	for _, e := range g.Edges() {
		if partOf(e[0], 2) == 0 {
			b.AddEdge(e[0], e[1])
		}
	}
	sub, err := b.Build()
	if err != nil {
		t.Fatalf("build partition 0: %v", err)
	}
	want := float64(sub.Count()) * 4

	resp, err := http.Post(rts.URL+"/v1/graphs/kg/count", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count with dead shard: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Degraded"); got != "partitions" {
		t.Errorf("X-Degraded = %q, want %q", got, "partitions")
	}
	var est serveapi.EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !est.Degraded {
		t.Error("degraded flag not set")
	}
	if est.Partitions != 2 || est.PartitionsLive != 1 {
		t.Errorf("partitions=%d live=%d, want 2/1", est.Partitions, est.PartitionsLive)
	}
	if est.Strategy != "partitions" {
		t.Errorf("strategy = %q, want partitions", est.Strategy)
	}
	if est.Estimate != want {
		t.Errorf("estimate = %v, want %v (live %d × 4)", est.Estimate, want, sub.Count())
	}
}

// TestReplicaFloor asserts read-your-writes: with a replica stuck one
// version behind, every routed read still observes the written
// version because the floor bounces the stale replica (503
// replica_behind) and the router falls through to the primary.
func TestReplicaFloor(t *testing.T) {
	shards := spawnShards(t, 2)
	rt, rts := newRouter(t, urlsOf(shards), Config{Replicas: 2})
	c := client.New(rts.URL)
	ctx := context.Background()

	g := mustGen(t)(butterfly.GenerateGnm(40, 30, 200, 5))
	registerInline(t, c, "rf", g, 1)

	// Mutate the primary directly, bypassing the router, so the
	// replica stays at v1 while the primary moves to v2.
	primary := rt.currentRing().Successors("rf", 2)[0]
	mreq, _ := json.Marshal(serveapi.MutateRequest{Inserts: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}})
	resp, err := http.Post(primary+"/v1/graphs/rf/mutate", "application/json", bytes.NewReader(mreq))
	if err != nil {
		t.Fatalf("direct mutate: %v", err)
	}
	var mr serveapi.MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("decode mutate: %v", err)
	}
	resp.Body.Close()
	if mr.Version != 2 {
		t.Fatalf("primary version = %d, want 2", mr.Version)
	}
	rt.ensureMeta("rf", 0).floor.Store(2)

	// Every read — wherever the rotation starts — must see v2.
	for i := 0; i < 6; i++ {
		cr, err := c.Count(ctx, "rf", serveapi.CountRequest{})
		if err != nil {
			t.Fatalf("count %d: %v", i, err)
		}
		if cr.Version != 2 {
			t.Fatalf("count %d: version %d served below floor 2", i, cr.Version)
		}
	}
}

// TestListMergesPartitions: the router's listing collapses partition
// graphs into one logical entry and hides the @@ marker names.
func TestListMergesPartitions(t *testing.T) {
	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)

	solo := mustGen(t)(butterfly.GenerateGnm(30, 20, 150, 9))
	parts := mustGen(t)(butterfly.GenerateGnm(50, 40, 400, 13))
	registerInline(t, c, "solo", solo, 1)
	registerInline(t, c, "parts", parts, 2)

	list, err := c.Graphs(context.Background())
	if err != nil {
		t.Fatalf("graphs: %v", err)
	}
	byName := map[string]serveapi.GraphInfo{}
	for _, gi := range list {
		if strings.Contains(gi.Name, "@@") {
			t.Errorf("partition name %q leaked into the listing", gi.Name)
		}
		byName[gi.Name] = gi
	}
	if len(byName) != 2 {
		t.Fatalf("want 2 logical graphs, got %v", list)
	}
	pg := byName["parts"]
	if pg.Partitions != 2 {
		t.Errorf("parts partitions = %d, want 2", pg.Partitions)
	}
	if pg.Version != 2 {
		t.Errorf("parts version = %d, want 2 (sum of partition v1s)", pg.Version)
	}
	if pg.NumEdges != parts.NumEdges() {
		t.Errorf("parts edges = %d, want %d", pg.NumEdges, parts.NumEdges())
	}
	if byName["solo"].Partitions != 0 {
		t.Errorf("solo unexpectedly partitioned: %+v", byName["solo"])
	}
}

// TestPartitionedMutate: mutations split by the registration hash and
// the follow-up count is exact.
func TestPartitionedMutate(t *testing.T) {
	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)
	ctx := context.Background()

	g := mustGen(t)(butterfly.GenerateGnm(60, 50, 400, 21))
	registerInline(t, c, "mg", g, 2)

	// Apply the same mutation to a local copy for the expected count.
	inserts := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 3}}
	deletes := g.Edges()[:5]
	local := butterfly.NewDynamicCounterFromGraph(g)
	for _, e := range inserts {
		local.InsertEdge(e[0], e[1])
	}
	for _, e := range deletes {
		local.DeleteEdge(e[0], e[1])
	}

	mr, err := c.Mutate(ctx, "mg", serveapi.MutateRequest{Inserts: inserts, Deletes: deletes})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if mr.Count != local.Count() {
		t.Errorf("mutate count = %d, want %d", mr.Count, local.Count())
	}
	cr, err := c.Count(ctx, "mg", serveapi.CountRequest{})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if cr.Butterflies != local.Count() {
		t.Errorf("post-mutate count = %d, want %d", cr.Butterflies, local.Count())
	}
}

// TestUnsupportedOnPartitioned: per-vertex endpoints reject
// partitioned graphs with invalid_argument instead of answering
// something silently wrong.
func TestUnsupportedOnPartitioned(t *testing.T) {
	shards := spawnShards(t, 2)
	_, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)
	ctx := context.Background()

	g := mustGen(t)(butterfly.GenerateGnm(30, 20, 150, 2))
	registerInline(t, c, "pp", g, 2)

	_, err := c.VertexCounts(ctx, "pp", serveapi.VertexCountsRequest{})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != serveapi.CodeInvalidArgument {
		t.Errorf("vertex-counts on partitioned graph: got %v, want 400 invalid_argument", err)
	}

	// Reserved marker in user names.
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: "evil@@p0of2", M: 2, N: 2, Edges: [][2]int{{0, 0}}})
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Errorf("register with @@ name: got %v, want 400", err)
	}

	// A negative scale is an error, not a full-size registration.
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: "neg", Dataset: "github", Scale: -1, Partitions: 2})
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Errorf("partitioned register with scale -1: got %v, want 400", err)
	}
}

// TestRebalance moves graphs through join and leave: counts are
// preserved across both, and a departed shard holds nothing.
func TestRebalance(t *testing.T) {
	shards := spawnShards(t, 3)
	urls := urlsOf(shards)
	rt, rts := newRouter(t, urls[:2], Config{})
	c := client.New(rts.URL)
	ctx := context.Background()

	solo := mustGen(t)(butterfly.GenerateGnm(40, 30, 250, 17))
	parts := mustGen(t)(butterfly.GeneratePowerLaw(80, 60, 500, 2.1, 2.3, 19))
	registerInline(t, c, "solo", solo, 1)
	registerInline(t, c, "parts", parts, 2)
	soloExact, partsExact := solo.Count(), parts.Count()

	rebalance := func(newShards []string) serveapi.RebalanceResponse {
		t.Helper()
		body, _ := json.Marshal(serveapi.RebalanceRequest{Shards: newShards})
		resp, err := http.Post(rts.URL+"/admin/rebalance", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("rebalance: %v", err)
		}
		defer resp.Body.Close()
		var rr serveapi.RebalanceResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode rebalance: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebalance status %d: %+v", resp.StatusCode, rr)
		}
		if len(rr.Errors) > 0 {
			t.Fatalf("rebalance errors: %v", rr.Errors)
		}
		return rr
	}
	checkCounts := func(stage string) {
		t.Helper()
		cr, err := c.Count(ctx, "solo", serveapi.CountRequest{})
		if err != nil || cr.Butterflies != soloExact {
			t.Fatalf("%s: solo count = %v/%v, want %d", stage, cr.Butterflies, err, soloExact)
		}
		cr, err = c.Count(ctx, "parts", serveapi.CountRequest{})
		if err != nil || cr.Butterflies != partsExact {
			t.Fatalf("%s: parts count = %v/%v, want %d", stage, cr.Butterflies, err, partsExact)
		}
	}

	checkCounts("before")
	rr := rebalance(urls) // join shard 3
	if rr.Shards != 3 {
		t.Fatalf("post-join shard count = %d, want 3", rr.Shards)
	}
	checkCounts("after join")
	if rt.currentRing().Len() != 3 {
		t.Fatalf("ring not swapped: %d nodes", rt.currentRing().Len())
	}

	rr = rebalance(urls[1:]) // shard 1 leaves
	if rr.Shards != 2 {
		t.Fatalf("post-leave shard count = %d, want 2", rr.Shards)
	}
	checkCounts("after leave")

	// The departed shard must hold nothing.
	resp, err := http.Get(urls[0] + "/v1/graphs")
	if err != nil {
		t.Fatalf("list departed shard: %v", err)
	}
	defer resp.Body.Close()
	var gl serveapi.GraphList
	if err := json.NewDecoder(resp.Body).Decode(&gl); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(gl.Graphs) != 0 {
		t.Errorf("departed shard still holds %v", gl.Graphs)
	}
}

// TestRouterRefresh: a freshly restarted router (no metadata)
// rediscovers partitioned graphs from the shards and serves exact
// counts for them.
func TestRouterRefresh(t *testing.T) {
	shards := spawnShards(t, 2)
	urls := urlsOf(shards)
	_, rts := newRouter(t, urls, Config{})
	c := client.New(rts.URL)
	ctx := context.Background()

	g := mustGen(t)(butterfly.GenerateGnm(50, 40, 350, 23))
	registerInline(t, c, "rg", g, 2)

	// "Restart": a second router over the same shards, no memory.
	rt2, rts2 := newRouter(t, urls, Config{})
	if err := rt2.Refresh(ctx); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	c2 := client.New(rts2.URL)
	cr, err := c2.Count(ctx, "rg", serveapi.CountRequest{})
	if err != nil {
		t.Fatalf("count after refresh: %v", err)
	}
	if cr.Butterflies != g.Count() {
		t.Errorf("count after refresh = %d, want %d", cr.Butterflies, g.Count())
	}
	if cr.Partitions != 2 {
		t.Errorf("partitions after refresh = %d, want 2", cr.Partitions)
	}
}

// TestTenantRoundTripThroughRouter: the QoS identity a client attaches
// survives router → shard (the shard charges and schedules under it)
// and the shard's resolved echo relays back to the client.
func TestTenantRoundTripThroughRouter(t *testing.T) {
	tcfg := serve.TenantsConfig{Tenants: map[string]serve.TenantSpec{"acme": {Weight: 2}}}
	shards := make([]*httptest.Server, 2)
	for i := range shards {
		s := serve.New(serve.Config{Role: "shard", Tenants: tcfg})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.Close)
		shards[i] = ts
	}
	_, rts := newRouter(t, urlsOf(shards), Config{})
	c := client.New(rts.URL)
	g := mustGen(t)(butterfly.GenerateGnm(40, 30, 200, 5))
	registerInline(t, c, "qos", g, 1)

	body := bytes.NewReader([]byte(`{}`))
	req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/graphs/qos/count", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serveapi.TenantHeader, "acme")
	req.Header.Set(serveapi.PriorityHeader, "batch")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count through router: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(serveapi.TenantHeader); got != "acme" {
		t.Errorf("echoed tenant = %q, want acme (lost across the router hop)", got)
	}
	if got := resp.Header.Get(serveapi.PriorityHeader); got != "batch" {
		t.Errorf("echoed priority = %q, want batch", got)
	}
	if resp.Header.Get("X-Bf-Shard") == "" {
		t.Error("response not stamped with the serving shard")
	}

	// An unknown tenant collapses to default on the shard, and the
	// client sees the collapse through the router.
	req2, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/graphs/qos/count", bytes.NewReader([]byte(`{}`)))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(serveapi.TenantHeader, "mystery")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(serveapi.TenantHeader); got != "default" {
		t.Errorf("unknown tenant echoed %q, want default", got)
	}
}
