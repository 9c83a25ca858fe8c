package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"butterfly"
	"butterfly/internal/flight"
	"butterfly/internal/obsv"
	"butterfly/internal/store"
	"butterfly/serveapi"
)

// Config tunes a Server. The zero value is usable: every field has a
// production-reasonable default, documented per field and in
// docs/SERVING.md ("capacity tuning").
type Config struct {
	// MaxInFlight bounds concurrently executing requests; ≤ 0 means
	// GOMAXPROCS. Counting is CPU-bound, so there is no benefit to
	// running more computations than cores — extra admissions only
	// inflate every request's latency.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond
	// it requests are shed with 429. ≤ 0 means 4 × MaxInFlight; use
	// NoQueue for an unbuffered admission gate.
	MaxQueue int
	// NoQueue forces an empty admission queue (MaxQueue = 0).
	NoQueue bool
	// CacheEntries bounds the LRU result cache; ≤ 0 means 1024 unless
	// NoCache is set.
	CacheEntries int
	// NoCache disables the result cache.
	NoCache bool
	// DefaultTimeout is the per-request deadline applied when a
	// request does not carry timeout_ms; ≤ 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout_ms; ≤ 0 means 5m.
	MaxTimeout time.Duration
	// AllowPathLoad permits RegisterRequest.Path, i.e. loading graphs
	// from server-side files. Off by default: a remote caller naming
	// filesystem paths is a read-oracle unless the deployment
	// explicitly wants it.
	AllowPathLoad bool
	// Store, when non-nil, makes the registry durable: every
	// register/mutate/drop is WAL-appended before it is published,
	// a background checkpointer compacts the log when it outgrows the
	// store's threshold, and POST /admin/checkpoint forces a
	// checkpoint. The daemon opens the store (running crash recovery)
	// and adopts the recovered graphs before serving.
	Store *store.Store
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose process internals and cost
	// CPU when scraped, so a deployment opts in (bfserved -pprof).
	EnablePprof bool
	// SlowQueryLog, when non-nil, receives one JSON line per request
	// at or above SlowQueryThreshold, including the request's span
	// breakdown. nil disables slow-query logging entirely.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the slow-query cutoff; 0 logs every
	// request (useful with a 0 threshold in smoke tests), negative is
	// clamped to 0. Only meaningful with SlowQueryLog set.
	SlowQueryThreshold time.Duration
	// DefaultReservoir is the reservoir capacity for streaming ingests
	// that do not name one (IngestRequest.Reservoir); ≤ 0 means 65536
	// edges. Memory per open ingest is O(capacity) on top of the
	// retained edge log.
	DefaultReservoir int
	// Role is reported by /v1/healthz ("single" when empty) so cluster
	// clients can tell shards from routers when probing a seed list.
	// It does not change behavior: a shard is an ordinary bfserved that
	// a router happens to address.
	Role string
	// Tenants is the QoS admission config: per-tenant token buckets,
	// WRR weights and queue bounds (docs/QOS.md). The zero value is one
	// unlimited default tenant — exactly the pre-QoS behavior. Hot-
	// reloadable at runtime via POST /admin/tenants.
	Tenants TenantsConfig
	// DisableLegacy makes the deprecated unversioned aliases answer
	// 410 Gone (their Sunset headers point at /v1). The /v1 surface is
	// unaffected.
	DisableLegacy bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.NoQueue {
		c.MaxQueue = 0
	} else if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.NoCache {
		c.CacheEntries = 0
	} else if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.DefaultReservoir <= 0 {
		c.DefaultReservoir = 1 << 16
	}
	if c.Role == "" {
		c.Role = "single"
	}
	return c
}

// Server is the bfserved HTTP service: a graph registry plus
// admission control, deadlines, result caching and metrics. Construct
// with New; it is an http.Handler.
type Server struct {
	cfg   Config
	reg   *Registry
	lim   *limiter
	cache *resultCache
	obs   *obsMetrics
	slow  *obsv.SlowLog
	mux   *http.ServeMux
	// arena pools counting workspaces across requests; the pool is
	// concurrency-safe and sheds nothing on mismatch, so one shared
	// arena serves every graph.
	arena    *butterfly.Arena
	draining atomic.Bool

	// flights coalesces identical in-flight queries: concurrent cache
	// misses on one key share a single kernel execution, keyed by the
	// result-cache key (api surface, graph, version, normalized query).
	flights flight.Group[flightOutcome]

	// store is the optional durability layer (Config.Store); ckptCh
	// nudges the background checkpointer, stopCh ends it.
	store     *store.Store
	ckptCh    chan struct{}
	stopCh    chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once

	// computeHook, when non-nil, runs after admission and before the
	// computation of every query — tests use it to hold a slot or burn
	// a deadline deterministically.
	computeHook func(ctx context.Context)
}

// New returns a Server ready to serve HTTP.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   NewRegistry(),
		lim:   newQoSLimiter(cfg.MaxInFlight, cfg.MaxQueue, cfg.Tenants),
		cache: newResultCache(cfg.CacheEntries),
		slow:  obsv.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQueryThreshold),
		arena: butterfly.NewArena(),
		store: cfg.Store,
	}
	s.obs = newObsMetrics(s)
	s.routes()
	if s.store != nil {
		s.reg.SetPersister(s.store)
		s.ckptCh = make(chan struct{}, 1)
		s.stopCh = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	return s
}

// Close stops the background checkpointer (if any). It does not close
// the store — the daemon owns that, after the HTTP server has fully
// drained.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.stopCh != nil {
			close(s.stopCh)
			<-s.ckptDone
		}
	})
}

// checkpointLoop runs size-triggered checkpoints in the background.
// Write endpoints nudge it after appending; it re-checks the
// threshold so spurious nudges are cheap.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	for {
		select {
		case <-s.ckptCh:
			if s.store.ShouldCheckpoint() {
				if _, err := s.checkpoint(); err != nil {
					s.obs.checkpointErrors.Inc()
				}
			}
		case <-s.stopCh:
			return
		}
	}
}

// nudgeCheckpoint wakes the background checkpointer if the WAL has
// outgrown its threshold. Non-blocking: a full channel means a
// checkpoint is already pending.
func (s *Server) nudgeCheckpoint() {
	if s.store == nil || !s.store.ShouldCheckpoint() {
		return
	}
	select {
	case s.ckptCh <- struct{}{}:
	default:
	}
}

// checkpoint snapshots every graph's published state and compacts the
// WAL. See Registry.CheckpointTo and store.Checkpoint for the
// consistency and durability-ordering story.
func (s *Server) checkpoint() (store.CheckpointStats, error) {
	var stats store.CheckpointStats
	err := s.reg.CheckpointTo(func(snaps []*Snapshot) error {
		states := make([]store.GraphState, len(snaps))
		for i, sn := range snaps {
			states[i] = store.GraphState{Name: sn.Name, Version: sn.Version, Graph: sn.Graph, Count: sn.Count}
		}
		var err error
		stats, err = s.store.Checkpoint(states)
		return err
	})
	return stats, err
}

// Registry exposes the server's graph registry (the daemon preloads
// graphs through it).
func (s *Server) Registry() *Registry { return s.reg }

// Drain flips the health endpoint to "draining" (503) so load
// balancers stop sending new work while http.Server.Shutdown lets
// in-flight requests finish.
func (s *Server) Drain() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// routes registers every endpoint twice: under /v1 (the versioned
// surface with the uniform error envelope and the ?debug=true trace
// knob) and at the original unversioned path (a deprecated alias that
// keeps the legacy error body and answers with a Deprecation header).
// /metrics and /debug/pprof are infrastructure and stay unversioned.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	endpoints := []struct {
		method, path, route string
		h                   http.HandlerFunc
	}{
		{"GET", "/healthz", "healthz", s.handleHealthz},
		{"GET", "/graphs", "graphs.list", s.handleListGraphs},
		{"POST", "/graphs", "graphs.register", s.handleRegister},
		{"GET", "/graphs/{name}", "graphs.info", s.handleGraphInfo},
		{"DELETE", "/graphs/{name}", "graphs.drop", s.handleDrop},
		{"POST", "/graphs/{name}/count", "count", s.handleCount},
		{"POST", "/graphs/{name}/vertex-counts", "vertex-counts", s.handleVertexCounts},
		{"POST", "/graphs/{name}/edge-supports", "edge-supports", s.handleEdgeSupports},
		{"POST", "/graphs/{name}/estimate", "estimate", s.handleEstimate},
		{"POST", "/graphs/{name}/peel", "peel", s.handlePeel},
		{"POST", "/graphs/{name}/mutate", "mutate", s.handleMutate},
		{"POST", "/admin/checkpoint", "admin.checkpoint", s.handleCheckpoint},
		{"POST", "/ingest", "ingest.open", s.handleIngestOpen},
		{"GET", "/ingest/{name}", "ingest.status", s.handleIngestStatus},
		{"POST", "/ingest/{name}/edges", "ingest.append", s.handleIngestAppend},
		{"POST", "/ingest/{name}/seal", "ingest.seal", s.handleIngestSeal},
		{"DELETE", "/ingest/{name}", "ingest.abort", s.handleIngestAbort},
	}
	for _, ep := range endpoints {
		s.mux.HandleFunc(ep.method+" /v1"+ep.path, s.instrument(ep.route, apiV1, ep.h))
		s.mux.HandleFunc(ep.method+" "+ep.path, s.instrument(ep.route, apiLegacy, ep.h))
	}
	// Cluster-internal endpoints are /v1-only: they postdate the legacy
	// surface and are spoken shard-to-router, never by end users.
	internal := []struct {
		method, path, route string
		h                   http.HandlerFunc
	}{
		{"GET", "/internal/partial/{name}", "internal.partial", s.handlePartial},
		{"GET", "/internal/export/{name}", "internal.export", s.handleExport},
		{"POST", "/internal/adopt", "internal.adopt", s.handleAdopt},
	}
	for _, ep := range internal {
		s.mux.HandleFunc(ep.method+" /v1"+ep.path, s.instrument(ep.route, apiV1, ep.h))
	}
	// QoS admin. Both mounts speak the /v1 envelope: the unversioned
	// spelling postdates the legacy surface, so it is not part of the
	// sunset and keeps working under -disable-legacy.
	for _, ep := range []struct {
		method string
		h      http.HandlerFunc
	}{
		{"GET", s.handleTenantsGet},
		{"POST", s.handleTenantsSet},
	} {
		s.mux.HandleFunc(ep.method+" /v1/admin/tenants", s.instrument("admin.tenants", apiV1, ep.h))
		s.mux.HandleFunc(ep.method+" /admin/tenants", s.instrument("admin.tenants", apiV1, ep.h))
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// statusWriter captures the response code and body size for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// legacySunset is the removal horizon of the unversioned aliases,
// answered in the Sunset header (RFC 8594) of every legacy response;
// the Link header points at the migration note.
const (
	legacySunset     = "Thu, 01 Apr 2027 00:00:00 GMT"
	legacySunsetLink = `</docs/SERVING.md#legacy-sunset>; rel="sunset"`
)

// instrument wraps a handler with the per-request trace, tenant
// resolution, the request counter, the latency/size histograms, and
// the slow-query log.
func (s *Server) instrument(route string, api apiVer, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st := &reqState{
			tr:     obsv.NewTrace("request"),
			api:    api,
			route:  route,
			debug:  api == apiV1 && debugRequested(r),
			tenant: defaultTenant,
		}
		// Tenancy is a /v1 feature: headers first, body fields win later
		// (applyTenant). The legacy surface predates tenancy and always
		// runs as the default tenant in the interactive lane.
		var laneErr error
		if api == apiV1 {
			st.tenant = s.lim.resolve(r.Header.Get(serveapi.TenantHeader))
			st.lane, laneErr = parseLane(r.Header.Get(serveapi.PriorityHeader))
		}
		r = withState(r, st)
		if api == apiLegacy {
			// The unversioned surface is a deprecated alias of /v1 with a
			// scheduled removal: every response carries the sunset
			// metadata, and remaining traffic is counted per route so
			// operators can see when the sunset can complete.
			w.Header().Set("Deprecation", "true")
			w.Header().Set("Sunset", legacySunset)
			w.Header().Set("Link", legacySunsetLink)
			s.obs.legacyReqs.With(route).Inc()
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		switch {
		case api == apiLegacy && s.cfg.DisableLegacy:
			writeJSON(sw, http.StatusGone, serveapi.Error{
				Status:  http.StatusGone,
				Message: "this unversioned route has been sunset; use /v1" + r.URL.Path,
			})
		case laneErr != nil:
			s.writeError(sw, r, laneErr)
		default:
			h(sw, r)
		}
		elapsed := time.Since(start)
		s.obs.observeRequest(st, sw.code, elapsed, sw.bytes)
		s.lim.observe(st.tenant, elapsed)
		if s.slow.Should(elapsed) {
			s.obs.slowQueries.With().Inc()
			s.slow.Record(slowEntry{
				TS:        start.UTC().Format(time.RFC3339Nano),
				Route:     route,
				API:       api.String(),
				Method:    r.Method,
				Path:      r.URL.Path,
				Status:    sw.code,
				ElapsedMS: float64(elapsed.Microseconds()) / 1000,
				Trace:     spanNode(st.tr.Snapshot()),
			})
		}
	}
}

// compute invokes the test hook, if any.
func (s *Server) compute(ctx context.Context) {
	if s.computeHook != nil {
		s.computeHook(ctx)
	}
}

// timeout resolves a request's deadline from its timeout_ms.
func (s *Server) timeout(ms int) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeOK renders a success body. Under ?debug=true on /v1 the
// request's span tree is attached first; the "render" span is opened
// before the snapshot so even thin responses carry it (open spans
// report their live duration).
func (s *Server) writeOK(w http.ResponseWriter, r *http.Request, code int, v any) {
	st := stateOf(r)
	sp := st.root().Child("render")
	if st.debug {
		setTrace(v, spanToAPI(st.tr.Snapshot()))
	}
	writeJSON(w, code, v)
	sp.End()
}

// errMap resolves an error to its HTTP status, /v1 machine code, and
// retry hint (nonzero only for load shedding).
func errMap(err error) (status int, code string, retryMS int64) {
	var nf ErrNotFound
	var ex ErrExists
	var br badRequestError
	var de DurabilityError
	var lo ErrLoading
	var ni ErrNotIngesting
	var rb replicaBehindError
	var qe quotaError
	var tl *http.MaxBytesError
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest, serveapi.CodeInvalidArgument, 0
	case errors.As(err, &tl):
		return http.StatusRequestEntityTooLarge, serveapi.CodeTooLarge, 0
	case errors.As(err, &qe):
		// The tenant's token bucket is empty: the retry hint is the
		// bucket's actual refill horizon, not a generic backoff.
		return http.StatusTooManyRequests, serveapi.CodeQuotaExhausted, qe.retryMS
	case errors.As(err, &rb):
		// The caller (a router, usually) should retry another replica
		// or wait for this one to catch up; either way, soon.
		return http.StatusServiceUnavailable, serveapi.CodeReplicaBehind, 50
	case errors.As(err, &nf):
		return http.StatusNotFound, serveapi.CodeNotFound, 0
	case errors.As(err, &ex):
		return http.StatusConflict, serveapi.CodeAlreadyExists, 0
	case errors.As(err, &lo):
		return http.StatusConflict, serveapi.CodeLoading, 0
	case errors.As(err, &ni):
		return http.StatusConflict, serveapi.CodeNotIngesting, 0
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests, serveapi.CodeOverloaded, 1000
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, serveapi.CodeDeadlineExceeded, 0
	case errors.As(err, &de):
		return http.StatusInternalServerError, serveapi.CodeNotDurable, 0
	default:
		return http.StatusInternalServerError, serveapi.CodeInternal, 0
	}
}

// writeError maps an error to its HTTP status and emits the JSON
// error body: the uniform {error:{code,message,...}} envelope on /v1
// (with retry_after_ms on 429 and the span tree under ?debug=true),
// the legacy {status,error} shape on the unversioned alias.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	st := stateOf(r)
	status, code, retryMS := errMap(err)
	if retryMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((retryMS+999)/1000, 10))
	}
	sp := st.root().Child("render")
	if st.api != apiV1 {
		writeJSON(w, status, serveapi.Error{Status: status, Message: err.Error()})
		sp.End()
		return
	}
	det := serveapi.ErrorDetail{Code: code, Message: err.Error(), RetryAfterMS: retryMS}
	if st.debug {
		det.Trace = spanToAPI(st.tr.Snapshot())
	}
	writeJSON(w, status, serveapi.ErrorEnvelope{Error: det})
	sp.End()
}

// decodeBody strictly decodes a JSON request body into v. An empty
// body is allowed and leaves v at its zero value, so `curl -X POST`
// without a body runs the default query. A body over 16 MiB fails
// with *http.MaxBytesError, which answers 413 instead of a misleading
// parse error about the truncated text.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		switch {
		case errors.Is(err, io.EOF):
			return nil
		case errors.As(err, &tooLarge):
			return tooLarge
		}
		return badReqf("invalid request body: %v", err)
	}
	return nil
}

// --- infrastructure endpoints ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sp := stateOf(r).root().Child("registry")
	h := serveapi.Health{
		Status:   "ok",
		Role:     s.cfg.Role,
		Graphs:   s.reg.Len(),
		InFlight: s.lim.inFlight(),
		Queued:   int(s.lim.queueDepth()),
	}
	sp.End()
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeOK(w, r, code, &h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.obs.reg.WriteProm(w)
}

// --- registry endpoints ---

func snapInfo(sn *Snapshot) serveapi.GraphInfo {
	return serveapi.GraphInfo{
		Name:        sn.Name,
		Version:     sn.Version,
		NumV1:       sn.Graph.NumV1(),
		NumV2:       sn.Graph.NumV2(),
		NumEdges:    sn.Graph.NumEdges(),
		Butterflies: sn.Count,
		Density:     sn.Graph.Density(),
	}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	sp := stateOf(r).root().Child("registry")
	snaps := s.reg.Snapshots()
	ingests := s.reg.Ingests()
	out := serveapi.GraphList{Graphs: make([]serveapi.GraphInfo, 0, len(snaps)+len(ingests))}
	for _, sn := range snaps {
		out.Graphs = append(out.Graphs, snapInfo(sn))
	}
	// Loading graphs appear after the registered ones, each group
	// sorted by name.
	for _, ing := range ingests {
		out.Graphs = append(out.Graphs, ingestInfo(ing))
	}
	sp.End()
	s.writeOK(w, r, http.StatusOK, &out)
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sp := stateOf(r).root().Child("registry")
	sn, err := s.reg.Get(name)
	if err != nil {
		// A loading graph has no snapshot but does have a live status.
		if ing, ok := s.reg.Ingest(name); ok {
			sp.End()
			info := ingestInfo(ing)
			s.writeOK(w, r, http.StatusOK, &info)
			return
		}
		sp.End()
		s.writeError(w, r, err)
		return
	}
	sp.End()
	if err := checkFloor(r, sn); err != nil {
		s.writeError(w, r, err)
		return
	}
	info := snapInfo(sn)
	s.writeOK(w, r, http.StatusOK, &info)
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	sp := stateOf(r).root().Child("registry")
	err := s.reg.Drop(r.PathValue("name"))
	sp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// loadRequestGraph materializes the graph named by a RegisterRequest.
func (s *Server) loadRequestGraph(req *serveapi.RegisterRequest) (*butterfly.Graph, error) {
	sources := 0
	if req.Dataset != "" {
		sources++
	}
	if req.Path != "" {
		sources++
	}
	if len(req.Edges) > 0 || req.M > 0 || req.N > 0 {
		sources++
	}
	if sources != 1 {
		return nil, badReqf("exactly one of dataset, path, or m/n/edges must be set")
	}
	switch {
	case req.Dataset != "":
		if req.Scale < 0 {
			return nil, badReqf("negative scale %d (0 or 1 = full size)", req.Scale)
		}
		g, err := butterfly.GeneratePaperDataset(req.Dataset, max(req.Scale, 1))
		if err != nil {
			return nil, badReqf("%v", err)
		}
		return g, nil
	case req.Path != "":
		if !s.cfg.AllowPathLoad {
			return nil, badReqf("server-side path loading is disabled (start bfserved with -allow-path-load)")
		}
		switch req.Format {
		case "", "konect":
			return butterfly.ReadKONECTFile(req.Path)
		case "matrixmarket", "mm":
			return butterfly.ReadMatrixMarketFile(req.Path)
		default:
			return nil, badReqf("unknown format %q (want konect|matrixmarket)", req.Format)
		}
	default:
		g, err := butterfly.FromEdges(req.M, req.N, req.Edges)
		if err != nil {
			return nil, badReqf("%v", err)
		}
		return g, nil
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	root := stateOf(r).root()
	psp := root.Child("parse")
	var req serveapi.RegisterRequest
	if err := decodeBody(w, r, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if req.Name == "" {
		psp.End()
		s.writeError(w, r, badReqf("name is required"))
		return
	}
	if req.Partitions > 1 {
		// Partitioned registration is a routing-tier feature: the
		// router splits the edge set and places the pieces. A single
		// bfserved has nowhere to scatter to.
		psp.End()
		s.writeError(w, r, badReqf("partitions=%d requires a cluster router (this is a %s bfserved)", req.Partitions, s.cfg.Role))
		return
	}
	psp.End()
	// Registration computes an initial exact count; bound its
	// concurrency like any other computation.
	asp := root.Child("admission")
	err := s.lim.acquire(r.Context())
	asp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer s.lim.release()
	lsp := root.Child("load")
	g, err := s.loadRequestGraph(&req)
	lsp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	rsp := root.Child("registry")
	sn, err := s.reg.RegisterObserved(req.Name, g, req.Replace, rsp.Hook())
	rsp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.nudgeCheckpoint()
	info := snapInfo(sn)
	s.writeOK(w, r, http.StatusCreated, &info)
}

// handleCheckpoint forces a synchronous checkpoint: snapshot every
// graph, truncate the WAL, GC stale snapshot files. 400 when the
// daemon runs without a data dir.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeError(w, r, badReqf("durability is not enabled (start bfserved with -data-dir)"))
		return
	}
	csp := stateOf(r).root().Child("checkpoint")
	stats, err := s.checkpoint()
	csp.End()
	if err != nil {
		s.obs.checkpointErrors.Inc()
		s.writeError(w, r, fmt.Errorf("checkpoint: %w", err))
		return
	}
	s.writeOK(w, r, http.StatusOK, &serveapi.CheckpointResponse{
		Graphs:         stats.Graphs,
		WALBytesBefore: stats.WALBytesBefore,
		WALBytesAfter:  stats.WALBytesAfter,
		ElapsedMS:      stats.Elapsed.Milliseconds(),
	})
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	root := stateOf(r).root()
	name := r.PathValue("name")
	psp := root.Child("parse")
	var req serveapi.MutateRequest
	if err := decodeBody(w, r, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if err := s.applyTenant(r, req.Tenant, req.Priority); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	psp.End()
	st := stateOf(r)
	echoTenant(w, st)
	asp := root.Child("admission")
	err := s.lim.acquireFor(r.Context(), st.tenant, st.lane)
	asp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer s.lim.release()
	start := time.Now()
	msp := root.Child("mutate")
	res, err := s.reg.MutateObserved(name, req.Inserts, req.Deletes, msp.Hook())
	msp.End()
	if err != nil {
		var nf ErrNotFound
		var de DurabilityError
		if !errors.As(err, &nf) && !errors.As(err, &de) {
			err = badReqf("%v", err)
		}
		s.writeError(w, r, err) // DurabilityError falls through to 500
		return
	}
	s.nudgeCheckpoint()
	s.writeOK(w, r, http.StatusOK, &serveapi.MutateResponse{
		Graph:     name,
		Version:   res.Version,
		Inserted:  res.Inserted,
		Deleted:   res.Deleted,
		Created:   res.Created,
		Destroyed: res.Destroyed,
		Count:     res.Count,
		Edges:     res.Edges,
		ElapsedMS: time.Since(start).Milliseconds(),
	})
}

// --- query endpoints ---

// flightOutcome is what a coalesced query execution publishes to its
// followers: the leader's exact rendered bytes (followers must observe
// the leader's body bit-for-bit) or the leader's error.
type flightOutcome struct {
	body []byte
	err  error
}

// serveQuery is the shared skeleton of every cached, admission-
// controlled, deadline-bounded query endpoint:
//
//  1. resolve the graph snapshot (404);
//  2. check the result cache under (name, version, key) — hits skip
//     admission entirely, which is what makes a hot cache absorb
//     traffic spikes;
//  3. charge one token from the requester's tenant bucket (429
//     quota_exhausted with the bucket's refill horizon when empty);
//  4. coalesce with any identical in-flight query: one leader acquires
//     an execution slot (429 overloaded when its tenant's queue is
//     full, 504 when the deadline expires while queued), runs exec
//     under the deadline, renders and caches; followers wait and
//     observe the leader's exact bytes (X-Cache: coalesced). Step 3
//     runs before the coalescing point, so a thundering herd shares
//     one kernel execution but every request pays its own tenant's
//     quota;
//  5. reply. Cache status is reported in the X-Cache header so bodies
//     stay byte-identical between hit, miss and coalesced.
//
// The flight key is the cache key: API surface, graph, version and
// normalized query (one shared query for every count) — the
// same identity that makes two responses byte-interchangeable. Legacy
// and /v1 requests therefore never share an execution, for the same
// reason they do not share cache entries.
//
// The leader executes on a context detached from its own client
// (context.WithoutCancel): its result is shared, so a leader
// disconnect must not poison every follower. The resolved timeout
// still bounds the run. Followers wait for the leader without a bound
// of their own — the leader's deadline is the bound — and inherit the
// leader's error verbatim (a 504 for a too-slow leader, a 429 for a
// full queue), except that the degrade-to-estimate fallback is applied
// per request: a follower that asked for ?degrade=estimate degrades
// even when the leader did not ask for it.
//
// ?debug=true requests bypass the cache and the coalescing in both
// directions: a debug response carries its own trace, so it must
// describe its own execution and be neither served from nor stored
// into shared state.
//
// onShed, when non-nil, is the degrade-to-estimate fallback: instead
// of answering 429 when the admission queue is full, the request is
// answered inline — outside any execution slot — with whatever cheap
// approximation onShed produces (marked by the X-Degraded header and
// never cached). The fallback must be orders of magnitude cheaper than
// the exact query, since it deliberately bypasses admission control.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, timeoutMS int, key string, onShed func(snap *Snapshot) (any, error), exec func(ctx context.Context, snap *Snapshot, ksp *obsv.Span) (any, error)) {
	st := stateOf(r)
	root := st.root()

	rsp := root.Child("registry")
	snap, err := s.reg.Get(r.PathValue("name"))
	rsp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := checkFloor(r, snap); err != nil {
		s.writeError(w, r, err)
		return
	}
	echoTenant(w, st)
	cacheKey := fmt.Sprintf("%s|%s|v%d|%s", st.api, snap.Name, snap.Version, key)
	if !st.debug {
		csp := root.Child("cache")
		body, ok := s.cache.get(cacheKey)
		csp.End()
		if ok {
			wsp := root.Child("render")
			w.Header().Set("X-Cache", "hit")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			wsp.End()
			return
		}
	}

	// Every request pays its own tenant's quota before anything is
	// shared: coalesced followers ride the leader's execution, never
	// its budget. The request's one top-level admission stage covers
	// the charge and, for a request that executes, its slot wait.
	chargeStart := time.Now()
	err = s.lim.charge(st.tenant)
	charged := time.Since(chargeStart)
	if err != nil {
		root.Stage("admission", charged)
		s.writeError(w, r, err)
		return
	}

	// run waits for an execution slot, which closes the admission
	// stage, then executes the query in it.
	run := func(ctx context.Context) (any, error) {
		waitStart := time.Now()
		err := s.lim.acquireSlot(ctx, st.tenant, st.lane)
		root.Stage("admission", charged+time.Since(waitStart))
		if err != nil {
			return nil, err
		}
		defer s.lim.release()
		start := time.Now()
		ksp := root.Child("kernel")
		s.compute(ctx)
		resp, err := exec(ctx, snap, ksp)
		ksp.End()
		if err != nil {
			return nil, err
		}
		setElapsed(resp, time.Since(start).Milliseconds())
		return resp, nil
	}

	if st.debug {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMS))
		defer cancel()
		resp, err := run(ctx)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		// Debug responses carry their span tree and are never cached.
		s.writeOK(w, r, http.StatusOK, resp)
		return
	}

	out, joined := s.flights.Do(cacheKey, func() flightOutcome {
		ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), s.timeout(timeoutMS))
		defer cancel()
		resp, err := run(ctx)
		if err != nil {
			return flightOutcome{err: err}
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return flightOutcome{err: err}
		}
		body = append(body, '\n')
		s.cache.put(cacheKey, body)
		return flightOutcome{body: body}
	})
	if joined {
		// A follower never waits for a slot: its admission stage is the
		// charge alone, recorded once the shared result arrives.
		root.Stage("admission", charged)
		s.obs.coalesced.With().Inc()
	}
	if out.err != nil {
		if errors.Is(out.err, errShed) && onShed != nil {
			dsp := root.Child("degrade")
			resp, derr := onShed(snap)
			dsp.End()
			if derr == nil {
				s.obs.estimates.With("degraded").Inc()
				w.Header().Set("X-Degraded", "estimate")
				s.writeOK(w, r, http.StatusOK, resp)
				return
			}
		}
		s.writeError(w, r, out.err)
		return
	}

	wsp := root.Child("render")
	if joined {
		w.Header().Set("X-Cache", "coalesced")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out.body)
	wsp.End()
}

// echoTenant reports the resolved tenant and priority back to the
// caller — headers only. Response bodies are shared across tenants by
// the result cache and by coalescing, so tenancy must never leak into
// them.
func echoTenant(w http.ResponseWriter, st *reqState) {
	if st.api != apiV1 {
		return
	}
	w.Header().Set(serveapi.TenantHeader, st.tenant)
	w.Header().Set(serveapi.PriorityHeader, st.lane.String())
}

// applyTenant applies a request body's tenant/priority fields; the
// body wins over the headers instrument resolved. Legacy requests
// ignore both — the old surface predates tenancy.
func (s *Server) applyTenant(r *http.Request, tenant, priority string) error {
	st := stateOf(r)
	if st.api != apiV1 {
		return nil
	}
	if tenant != "" {
		st.tenant = s.lim.resolve(tenant)
	}
	if priority != "" {
		ln, err := parseLane(priority)
		if err != nil {
			return err
		}
		st.lane = ln
	}
	return nil
}

// --- QoS admin endpoints ---

// handleTenantsGet returns the active tenant config.
func (s *Server) handleTenantsGet(w http.ResponseWriter, r *http.Request) {
	cfg := s.lim.config()
	s.writeOK(w, r, http.StatusOK, &cfg)
}

// handleTenantsSet hot-swaps the tenant config. Buckets keep their
// earned tokens (clamped to the new burst) and queued requests drain
// under the new weights; nothing in flight is disturbed.
func (s *Server) handleTenantsSet(w http.ResponseWriter, r *http.Request) {
	var cfg TenantsConfig
	if err := decodeBody(w, r, &cfg); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.lim.setConfig(cfg)
	out := s.lim.config()
	s.writeOK(w, r, http.StatusOK, &out)
}

// setElapsed stamps the compute latency on the response types that
// carry one. Cached replies keep the original compute time — the
// useful number for capacity planning ("what did this result cost").
func setElapsed(resp any, ms int64) {
	switch v := resp.(type) {
	case *serveapi.CountResponse:
		v.ElapsedMS = ms
	case *serveapi.VertexCountsResponse:
		v.ElapsedMS = ms
	case *serveapi.EdgeSupportsResponse:
		v.ElapsedMS = ms
	case *serveapi.EstimateResponse:
		v.ElapsedMS = ms
	case *serveapi.IngestResponse:
		v.ElapsedMS = ms
	case *serveapi.PeelResponse:
		v.ElapsedMS = ms
	}
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	psp := stateOf(r).root().Child("parse")
	var req serveapi.CountRequest
	if err := decodeBody(w, r, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if err := s.applyTenant(r, req.Tenant, req.Priority); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	// ?degrade=estimate opts into the approximate tier under overload:
	// a shed request answers 200 with a sampling estimate (Degraded
	// set, X-Degraded header) instead of a bare 429.
	var onShed func(snap *Snapshot) (any, error)
	switch r.URL.Query().Get("degrade") {
	case "":
	case "estimate":
		onShed = s.degradedEstimate
	default:
		psp.End()
		s.writeError(w, r, badReqf("unknown degrade mode %q (want estimate)", r.URL.Query().Get("degrade")))
		return
	}
	psp.End()
	s.serveQuery(w, r, req.TimeoutMillis, keyCount, onShed, func(ctx context.Context, snap *Snapshot, ksp *obsv.Span) (any, error) {
		return s.execCount(ctx, snap, ksp)
	})
}

func (s *Server) handleVertexCounts(w http.ResponseWriter, r *http.Request) {
	psp := stateOf(r).root().Child("parse")
	var req serveapi.VertexCountsRequest
	if err := decodeBody(w, r, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if err := s.applyTenant(r, req.Tenant, req.Priority); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	side, err := parseSide(req.Side)
	if err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	top := req.Top
	if top == 0 {
		top = 100
	}
	psp.End()
	s.serveQuery(w, r, req.TimeoutMillis, keyVertex(side, top), nil, func(ctx context.Context, snap *Snapshot, ksp *obsv.Span) (any, error) {
		return s.execVertexCounts(ctx, snap, side, top)
	})
}

func (s *Server) handleEdgeSupports(w http.ResponseWriter, r *http.Request) {
	psp := stateOf(r).root().Child("parse")
	var req serveapi.EdgeSupportsRequest
	if err := decodeBody(w, r, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if err := s.applyTenant(r, req.Tenant, req.Priority); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	top := req.Top
	if top == 0 {
		top = 100
	}
	psp.End()
	s.serveQuery(w, r, req.TimeoutMillis, fmt.Sprintf("%s|top=%d", keyEdges, top), nil, func(ctx context.Context, snap *Snapshot, ksp *obsv.Span) (any, error) {
		return s.execEdgeSupports(ctx, snap, top)
	})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	root := stateOf(r).root()
	psp := root.Child("parse")
	var req serveapi.EstimateRequest
	if err := decodeBody(w, r, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if err := s.applyTenant(r, req.Tenant, req.Priority); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	psp.End()
	// A graph still streaming through /v1/ingest answers from the live
	// reservoir: O(1), uncached, and deliberately outside admission
	// control — the approximate tier must answer even when the exact
	// tier is saturated (that is its job).
	if ing, ok := s.reg.Ingest(r.PathValue("name")); ok {
		rsp := root.Child("reservoir")
		st := ing.status()
		rsp.End()
		s.obs.estimates.With("reservoir").Inc()
		resp := &serveapi.EstimateResponse{
			ResultMeta:    serveapi.ResultMeta{Graph: st.Graph},
			State:         "loading",
			Strategy:      "reservoir",
			Estimate:      st.Estimate,
			StdErr:        st.StdErr,
			CI95:          st.CI95,
			EdgesSeen:     st.EdgesSeen,
			ReservoirSize: st.ReservoirSize,
		}
		s.writeOK(w, r, http.StatusOK, resp)
		return
	}
	s.serveQuery(w, r, req.TimeoutMillis, keyEstimate(&req), nil, func(ctx context.Context, snap *Snapshot, ksp *obsv.Span) (any, error) {
		return s.execEstimate(ctx, snap, &req)
	})
}

func (s *Server) handlePeel(w http.ResponseWriter, r *http.Request) {
	psp := stateOf(r).root().Child("parse")
	var req serveapi.PeelRequest
	if err := decodeBody(w, r, &req); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if err := s.applyTenant(r, req.Tenant, req.Priority); err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	side, err := parseSide(req.Side)
	if err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	if req.Mode != "tip" && req.Mode != "wing" {
		psp.End()
		s.writeError(w, r, badReqf("unknown mode %q (want tip|wing)", req.Mode))
		return
	}
	if req.K < 0 {
		psp.End()
		s.writeError(w, r, badReqf("k must be ≥ 0, got %d", req.K))
		return
	}
	engine, err := parsePeelEngine(req.Engine)
	if err != nil {
		psp.End()
		s.writeError(w, r, err)
		return
	}
	psp.End()
	s.serveQuery(w, r, req.TimeoutMillis, keyPeel(req.Mode, req.K, side, engine), nil, func(ctx context.Context, snap *Snapshot, ksp *obsv.Span) (any, error) {
		return s.execPeel(ctx, snap, &req, ksp)
	})
}
