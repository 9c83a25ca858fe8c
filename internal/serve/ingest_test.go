package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"

	"butterfly"
	"butterfly/client"
	"butterfly/serveapi"
)

// wantCode asserts an APIError with the given HTTP status and /v1 code.
func wantCode(t *testing.T, err error, status int, code, what string) {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("%s: err = %v, want APIError %d %s", what, err, status, code)
	}
	if apiErr.Status != status || apiErr.Code != code {
		t.Fatalf("%s: got %d %q (%s), want %d %q", what, apiErr.Status, apiErr.Code, apiErr.Message, status, code)
	}
}

// TestIngestLifecycle walks the full streaming path: open → append →
// estimate while loading (exact queries 409) → seal → exact count
// equals the offline count → the ingest surface is gone.
func TestIngestLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	edges := completeEdges(8, 8) // K(8,8): C(8,2)² = 784 butterflies
	open, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "st", M: 8, N: 8, Reservoir: 48, Seed: 7})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if open.State != "loading" || open.ReservoirCap != 48 || open.EdgesSeen != 0 {
		t.Fatalf("open = %+v", open)
	}

	// First half of the stream.
	app, err := c.IngestAppend(ctx, "st", edges[:32])
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if app.Accepted != 32 || app.EdgesSeen != 32 {
		t.Fatalf("append = %+v", app)
	}

	// Mid-load: the estimate endpoint answers from the reservoir with a
	// well-formed CI envelope.
	est, err := c.Estimate(ctx, "st", serveapi.EstimateRequest{})
	if err != nil {
		t.Fatalf("estimate while loading: %v", err)
	}
	if est.State != "loading" || est.Strategy != "reservoir" || est.EdgesSeen != 32 {
		t.Fatalf("loading estimate = %+v", est)
	}
	if est.Estimate < 0 || est.StdErr < 0 || est.CI95 < 1.9*est.StdErr {
		t.Fatalf("malformed CI envelope: %+v", est)
	}

	// Exact queries on a loading graph answer 409 loading.
	_, err = c.Count(ctx, "st", serveapi.CountRequest{})
	wantCode(t, err, http.StatusConflict, serveapi.CodeLoading, "count while loading")
	_, err = c.Peel(ctx, "st", serveapi.PeelRequest{Mode: "wing", K: 1})
	wantCode(t, err, http.StatusConflict, serveapi.CodeLoading, "peel while loading")

	// The loading graph is visible in listings and info.
	info, err := c.GraphInfo(ctx, "st")
	if err != nil || info.State != "loading" || info.Version != 0 || info.NumEdges != 32 {
		t.Fatalf("loading info = %+v, %v", info, err)
	}
	graphs, err := c.Graphs(ctx)
	if err != nil || len(graphs) != 1 || graphs[0].State != "loading" {
		t.Fatalf("graphs = %+v, %v", graphs, err)
	}

	// Rest of the stream, including duplicates (collapse at seal).
	if _, err := c.IngestAppend(ctx, "st", edges[32:]); err != nil {
		t.Fatalf("append rest: %v", err)
	}
	if _, err := c.IngestAppend(ctx, "st", edges[:5]); err != nil {
		t.Fatalf("append dups: %v", err)
	}

	status, err := c.IngestStatus(ctx, "st")
	if err != nil || status.EdgesSeen != 69 {
		t.Fatalf("status = %+v, %v", status, err)
	}

	// Seal: the graph becomes a normal registered graph at version 1
	// with the exact count, matching the offline count of the same
	// edge set.
	g, err := butterfly.FromEdges(8, 8, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Count()
	sealed, err := c.IngestSeal(ctx, "st")
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if sealed.State != "" || sealed.Version != 1 || sealed.NumEdges != 64 || sealed.Butterflies != want {
		t.Fatalf("sealed = %+v, want %d butterflies @ v1", sealed, want)
	}
	count, err := c.Count(ctx, "st", serveapi.CountRequest{})
	if err != nil || count.Butterflies != want {
		t.Fatalf("count after seal = %+v, %v", count, err)
	}

	// The sampling estimator now answers (K(8,8) is uniform, so one
	// sample is already exact).
	est, err = c.Estimate(ctx, "st", serveapi.EstimateRequest{Strategy: "edges", Samples: 10, Seed: 3})
	if err != nil {
		t.Fatalf("estimate after seal: %v", err)
	}
	if est.State != "" || est.Strategy != "edges" || est.Samples != 10 || est.Estimate != float64(want) {
		t.Fatalf("sealed estimate = %+v", est)
	}

	// The ingest surface is gone.
	_, err = c.IngestAppend(ctx, "st", edges[:1])
	wantCode(t, err, http.StatusConflict, serveapi.CodeNotIngesting, "append after seal")
	_, err = c.IngestStatus(ctx, "st")
	wantCode(t, err, http.StatusConflict, serveapi.CodeNotIngesting, "status after seal")
	err = c.IngestAbort(ctx, "st")
	wantCode(t, err, http.StatusConflict, serveapi.CodeNotIngesting, "abort after seal")
	_, err = c.IngestSeal(ctx, "st")
	wantCode(t, err, http.StatusConflict, serveapi.CodeNotIngesting, "double seal")
}

// TestIngestExactRegime: while the whole stream fits the reservoir the
// estimate is exact with zero error bars.
func TestIngestExactRegime(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "small", M: 4, N: 4, Reservoir: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestAppend(ctx, "small", completeEdges(4, 4)); err != nil {
		t.Fatal(err)
	}
	st, err := c.IngestStatus(ctx, "small")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exact || st.Estimate != 36 || st.StdErr != 0 || st.CI95 != 0 {
		t.Fatalf("exact-regime status = %+v, want exact 36", st)
	}
}

// TestIngestConflictsAndAbort covers name collisions in both
// directions and the abort path.
func TestIngestConflictsAndAbort(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)

	// Opening over a registered name requires replace.
	_, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "k44", M: 2, N: 2})
	wantCode(t, err, http.StatusConflict, serveapi.CodeAlreadyExists, "open over registered")
	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "k44", M: 2, N: 2, Replace: true}); err != nil {
		t.Fatalf("open replace: %v", err)
	}
	// The registered graph is gone; the name is loading now.
	_, err = c.Count(ctx, "k44", serveapi.CountRequest{})
	wantCode(t, err, http.StatusConflict, serveapi.CodeLoading, "count after replace-open")

	// Registering over an open ingest requires replace too.
	_, err = c.Register(ctx, serveapi.RegisterRequest{Name: "k44", M: 2, N: 2, Edges: completeEdges(2, 2)})
	wantCode(t, err, http.StatusConflict, serveapi.CodeAlreadyExists, "register over ingest")
	info, err := c.Register(ctx, serveapi.RegisterRequest{Name: "k44", Replace: true, M: 2, N: 2, Edges: completeEdges(2, 2)})
	if err != nil || info.Butterflies != 1 {
		t.Fatalf("register replace over ingest = %+v, %v", info, err)
	}
	// The superseded ingest is gone.
	_, err = c.IngestStatus(ctx, "k44")
	wantCode(t, err, http.StatusConflict, serveapi.CodeNotIngesting, "status after replace-register")

	// Abort discards an open ingest entirely.
	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "tmp", M: 2, N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestAbort(ctx, "tmp"); err != nil {
		t.Fatalf("abort: %v", err)
	}
	_, err = c.Count(ctx, "tmp", serveapi.CountRequest{})
	wantCode(t, err, http.StatusNotFound, serveapi.CodeNotFound, "count after abort")

	// Dropping a loading graph aborts its ingest.
	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "tmp2", M: 2, N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop(ctx, "tmp2"); err != nil {
		t.Fatalf("drop loading graph: %v", err)
	}
	_, err = c.IngestStatus(ctx, "tmp2")
	wantCode(t, err, http.StatusConflict, serveapi.CodeNotIngesting, "status after drop")
}

func TestIngestBadInputs(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	_, err := c.IngestOpen(ctx, serveapi.IngestRequest{M: 2, N: 2})
	wantCode(t, err, http.StatusBadRequest, serveapi.CodeInvalidArgument, "missing name")
	_, err = c.IngestOpen(ctx, serveapi.IngestRequest{Name: "g", M: -1, N: 2})
	wantCode(t, err, http.StatusBadRequest, serveapi.CodeInvalidArgument, "negative dimension")
	_, err = c.IngestOpen(ctx, serveapi.IngestRequest{Name: "g", M: 2, N: 2, Reservoir: 2})
	wantCode(t, err, http.StatusBadRequest, serveapi.CodeInvalidArgument, "reservoir below 4")

	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "g", M: 2, N: 2}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range endpoint: the batch is rejected, nothing applied.
	_, err = c.IngestAppend(ctx, "g", [][2]int{{0, 0}, {5, 0}})
	wantCode(t, err, http.StatusBadRequest, serveapi.CodeInvalidArgument, "out-of-range edge")
	st, err := c.IngestStatus(ctx, "g")
	if err != nil || st.EdgesSeen != 0 {
		t.Fatalf("status after rejected batch = %+v, %v", st, err)
	}
	// Malformed NDJSON line.
	resp, err := http.Post(urlOf(t, c)+"/v1/ingest/g/edges", "application/x-ndjson", strings.NewReader("[0,0]\nnot json\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed line status = %d, want 400", resp.StatusCode)
	}
	// Ops against a name with no ingest.
	_, err = c.IngestAppend(ctx, "nope", [][2]int{{0, 0}})
	wantCode(t, err, http.StatusConflict, serveapi.CodeNotIngesting, "append unknown")
	_, err = c.Estimate(ctx, "nope", serveapi.EstimateRequest{})
	wantCode(t, err, http.StatusNotFound, serveapi.CodeNotFound, "estimate unknown")
}

// TestIngestConcurrentAppendAndEstimate streams disjoint edge chunks
// from several goroutines while another hammers the estimate endpoint
// — the -race run of the serve layer's loading tier. The sealed count
// must equal the offline count of the full edge set.
func TestIngestConcurrentAppendAndEstimate(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	edges := completeEdges(10, 10)
	if _, err := c.IngestOpen(ctx, serveapi.IngestRequest{Name: "cc", M: 10, N: 10, Reservoir: 32, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 8)
	var appenders sync.WaitGroup
	for i := 0; i < 4; i++ {
		chunk := edges[i*25 : (i+1)*25]
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for j := 0; j < len(chunk); j += 5 {
				if _, err := c.IngestAppend(ctx, "cc", chunk[j:j+5]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	estDone := make(chan struct{})
	go func() {
		defer close(estDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			est, err := c.Estimate(ctx, "cc", serveapi.EstimateRequest{})
			if err != nil {
				errs <- err
				return
			}
			if est.State != "loading" || est.Estimate < 0 {
				errs <- errors.New("malformed loading estimate")
				return
			}
		}
	}()
	appenders.Wait()
	close(stop)
	<-estDone
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	g, err := butterfly.FromEdges(10, 10, edges)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := c.IngestSeal(ctx, "cc")
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if sealed.Butterflies != g.Count() || sealed.NumEdges != 100 {
		t.Fatalf("sealed = %+v, want %d butterflies over 100 edges", sealed, g.Count())
	}
}

// TestDegradeToEstimate: with the limiter saturated, ?degrade=estimate
// answers 200 with a degraded estimate envelope while a plain count is
// still shed with 429.
func TestDegradeToEstimate(t *testing.T) {
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
		}
	}

	// Request A occupies the only slot. It is not a count: every count
	// of a graph version shares one cache key, so a count here would
	// coalesce the requests below onto A's flight instead of
	// contending for the slot.
	aDone := make(chan error, 1)
	go func() {
		_, err := c.VertexCounts(ctx, "k44", serveapi.VertexCountsRequest{})
		aDone <- err
	}()
	<-entered

	// A plain count is shed...
	_, err := c.Count(ctx, "k44", serveapi.CountRequest{})
	wantCode(t, err, http.StatusTooManyRequests, serveapi.CodeOverloaded, "plain count under load")

	// ...but the degradable count comes back as an estimate.
	count, est, err := c.CountOrEstimate(ctx, "k44", serveapi.CountRequest{})
	if err != nil {
		t.Fatalf("degradable count: %v", err)
	}
	if count != nil || est == nil || !est.Degraded {
		t.Fatalf("degrade = count %+v est %+v, want degraded estimate", count, est)
	}
	// K(4,4) is uniform, so even the small degrade sample is exact.
	if est.Estimate != 36 || est.Strategy != "edges" || est.Samples != degradeSamples {
		t.Fatalf("degraded estimate = %+v", est)
	}

	close(gate)
	if err := <-aDone; err != nil {
		t.Fatalf("request A: %v", err)
	}

	// Uncontended, the same degradable request runs the exact count.
	count, est, err = c.CountOrEstimate(ctx, "k44", serveapi.CountRequest{})
	if err != nil || est != nil || count == nil || count.Butterflies != 36 {
		t.Fatalf("uncontended degradable count = %+v / %+v, %v", count, est, err)
	}

	// A bogus degrade mode is rejected.
	resp, err := http.Post(urlOf(t, c)+"/v1/graphs/k44/count?degrade=guess", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad degrade mode status = %d, want 400", resp.StatusCode)
	}
}

// TestEstimateAdaptiveServe: Samples == 0 engages the adaptive stopping
// rule server-side; on a uniform graph it stops at the minimum sample
// count with a collapsed CI.
func TestEstimateAdaptiveServe(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)

	est, err := c.Estimate(ctx, "k44", serveapi.EstimateRequest{Strategy: "edges", Seed: 5, TargetRelErr: 0.1})
	if err != nil {
		t.Fatalf("adaptive estimate: %v", err)
	}
	if est.Estimate != 36 || est.CI95 != 0 {
		t.Fatalf("adaptive estimate on K(4,4) = %+v, want exact 36", est)
	}
	if est.Samples < 64 {
		t.Fatalf("adaptive estimate took %d samples, want ≥ the minimum 64", est.Samples)
	}
	if est.Strategy != "edges" {
		t.Fatalf("strategy = %q", est.Strategy)
	}

	// Bad adaptive knobs are rejected up front.
	_, err = c.Estimate(ctx, "k44", serveapi.EstimateRequest{Strategy: "edges", TargetRelErr: -0.5})
	wantCode(t, err, http.StatusBadRequest, serveapi.CodeInvalidArgument, "negative target")
	_, err = c.Estimate(ctx, "k44", serveapi.EstimateRequest{Strategy: "edges", MaxSamples: -1})
	wantCode(t, err, http.StatusBadRequest, serveapi.CodeInvalidArgument, "negative max samples")
}
