package serve

// Observability: the API-surface tag, the request state carried
// through the handler chain (trace + debug knob), the server's one
// metrics registry (events recorded per request, plus families read at
// scrape time from the components that own the values), the span→wire
// conversion, and the slow-query log entry.

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"butterfly/internal/obsv"
	"butterfly/serveapi"
)

// apiVer tags which HTTP surface a request arrived on.
type apiVer int

const (
	// apiLegacy is the original unversioned surface (deprecated; kept
	// as an alias of /v1 with the old error body).
	apiLegacy apiVer = iota
	// apiV1 is the versioned surface: /v1/... paths, uniform error
	// envelope, debug traces.
	apiV1
)

// String is the metrics label and cache-key spelling.
func (a apiVer) String() string {
	if a == apiV1 {
		return "v1"
	}
	return "legacy"
}

// reqState is the per-request observability state, carried in the
// request context by instrument. Handlers reach it via stateOf.
type reqState struct {
	tr    *obsv.Trace
	api   apiVer
	route string
	// debug is true when a /v1 request asked for ?debug=true: the
	// response carries the span tree and bypasses the result cache in
	// both directions (and request coalescing — a debug trace must
	// describe this execution, not a shared one).
	debug bool
	// tenant is the resolved QoS tenant the request is charged to
	// (headers first, body fields win; unknown names collapse to
	// "default"). lane is its resolved priority. Legacy-surface
	// requests always run as the default tenant, interactive lane.
	tenant string
	lane   lane
}

// root returns the request's root span (nil-safe: a nil state or trace
// yields a nil span whose methods all no-op).
func (st *reqState) root() *obsv.Span {
	if st == nil {
		return nil
	}
	return st.tr.Root()
}

type reqStateKey struct{}

// stateOf returns the request's observability state. Requests that
// bypassed instrument (direct handler tests) get an inert zero state:
// legacy surface, no trace, no debug.
func stateOf(r *http.Request) *reqState {
	if st, ok := r.Context().Value(reqStateKey{}).(*reqState); ok {
		return st
	}
	return &reqState{}
}

// withState installs st into the request context.
func withState(r *http.Request, st *reqState) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), reqStateKey{}, st))
}

// debugRequested reports the ?debug query knob.
func debugRequested(r *http.Request) bool {
	switch r.URL.Query().Get("debug") {
	case "true", "1":
		return true
	}
	return false
}

// requestBuckets are the bfserved_request_seconds bounds: half-decade
// spacing from 1 ms to 10 s. The family is older than
// obsv.LatencyBuckets and keeps its own `le` bounds.
var requestBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// obsMetrics is the server's one metrics registry. The vectors below
// are the events the server records itself; newObsMetrics also
// registers the families read at scrape time. Route and stage label
// sets are bounded by construction (routes come from the static
// endpoint table; stages are the fixed top-level span names), so
// cardinality cannot run away.
type obsMetrics struct {
	reg            *obsv.Registry
	requests       *obsv.CounterVec   // {route, code}
	requestSeconds *obsv.Histogram    // every finished request
	routeSeconds   *obsv.HistogramVec // {route, api}
	stageSeconds   *obsv.HistogramVec // {stage}
	responseBytes  *obsv.HistogramVec
	slowQueries    *obsv.CounterVec
	estimates      *obsv.CounterVec // {kind}
	ingestEdges    *obsv.CounterVec
	// tenantSeconds is the per-tenant latency histogram behind the QoS
	// layer's p99 acceptance numbers. The tenant label set is bounded:
	// unresolvable names collapse to "default" before they get here.
	tenantSeconds *obsv.HistogramVec // {tenant}
	// coalesced counts follower requests that shared a leader's kernel
	// execution instead of running their own.
	coalesced *obsv.CounterVec
	// legacyReqs counts requests still arriving on the deprecated
	// unversioned aliases, by route — the signal for when the sunset
	// can complete.
	legacyReqs *obsv.CounterVec // {route}
	// checkpointErrors counts failed checkpoints (background or
	// admin-triggered), so operators can alert on a store that stopped
	// compacting. Registered only when the server has a store.
	checkpointErrors *obsv.Counter
}

// newObsMetrics builds the registry for s. The limiter, result cache,
// graph registry and store must already be set: their values are read
// at scrape time rather than copied.
func newObsMetrics(s *Server) *obsMetrics {
	reg := obsv.NewRegistry()
	m := &obsMetrics{
		reg: reg,
		requests: reg.Counter("bfserved_requests_total",
			"Finished HTTP requests by route and status code.", "route", "code"),
		requestSeconds: reg.Histogram("bfserved_request_seconds",
			"Latency of finished HTTP requests.", requestBuckets).With(),
		routeSeconds: reg.Histogram("bfserved_route_seconds",
			"Latency of finished HTTP requests by route and API surface.",
			obsv.LatencyBuckets, "route", "api"),
		stageSeconds: reg.Histogram("bfserved_stage_seconds",
			"Duration of named request stages from the per-request trace.",
			obsv.LatencyBuckets, "stage"),
		responseBytes: reg.Histogram("bfserved_response_bytes",
			"Response body size in bytes.", obsv.SizeBuckets),
		slowQueries: reg.Counter("bfserved_slow_queries_total",
			"Requests at or above the slow-query threshold."),
		estimates: reg.Counter("bfserved_estimates_total",
			"Approximate-tier answers served, by kind (reservoir|sample|degraded).",
			"kind"),
		ingestEdges: reg.Counter("bfserved_ingest_edges_total",
			"Edges accepted by streaming ingest."),
		tenantSeconds: reg.Histogram("bfserved_tenant_seconds",
			"Latency of finished HTTP requests by QoS tenant.",
			obsv.LatencyBuckets, "tenant"),
		coalesced: reg.Counter("bfserved_coalesced_total",
			"Requests that joined an identical in-flight execution instead of running their own."),
		legacyReqs: reg.Counter("bfserved_legacy_requests_total",
			"Requests on the deprecated unversioned routes, by route.",
			"route"),
	}

	// Result cache.
	single(reg, "bfserved_cache_hits_total", "Result-cache hits.", "counter",
		func() uint64 { h, _, _ := s.cache.stats(); return h })
	single(reg, "bfserved_cache_misses_total", "Result-cache misses.", "counter",
		func() uint64 { _, miss, _ := s.cache.stats(); return miss })
	single(reg, "bfserved_cache_entries", "Result-cache current size.", "gauge",
		func() int { _, _, n := s.cache.stats(); return n })
	obsv.Func(reg, "bfserved_cache_hit_ratio", "Hits / (hits + misses) since start.", "gauge",
		func() []obsv.Sample[float64] {
			h, miss, _ := s.cache.stats()
			if h+miss == 0 {
				return nil
			}
			return []obsv.Sample[float64]{{Value: float64(h) / float64(h+miss)}}
		})

	// Admission control and per-tenant QoS.
	single(reg, "bfserved_in_flight", "Requests currently executing.", "gauge", s.lim.inFlight)
	single(reg, "bfserved_queue_depth", "Requests waiting for an execution slot.", "gauge", s.lim.queueDepth)
	single(reg, "bfserved_shed_total", "Requests rejected with 429 because the queue was full.", "counter", s.lim.shedTotal)
	perTenant(reg, s.lim, "bfserved_tenant_admitted_total", "Requests granted an execution slot, per tenant.", "counter",
		func(ts tenantStat) uint64 { return ts.admitted })
	obsv.Func(reg, "bfserved_tenant_shed_total",
		"Requests shed per tenant by reason: queue (bounded queue full) or quota (token bucket empty).", "counter",
		func() []obsv.Sample[uint64] {
			var out []obsv.Sample[uint64]
			for _, ts := range s.lim.tenantStats() {
				out = append(out,
					obsv.Sample[uint64]{Labels: []string{ts.name, "queue"}, Value: ts.shedQueue},
					obsv.Sample[uint64]{Labels: []string{ts.name, "quota"}, Value: ts.shedQuota})
			}
			return out
		}, "tenant", "reason")
	perTenant(reg, s.lim, "bfserved_tenant_evicted_total",
		"Queued requests abandoned before dispatch (deadline expiry or disconnect), per tenant.", "counter",
		func(ts tenantStat) uint64 { return ts.evicted })
	perTenant(reg, s.lim, "bfserved_tenant_queue_depth", "Requests currently waiting for a slot, per tenant.", "gauge",
		func(ts tenantStat) int { return ts.queued })
	perTenant(reg, s.lim, "bfserved_tenant_weight", "Configured weighted-round-robin weight, per tenant.", "gauge",
		func(ts tenantStat) int { return ts.weight })
	perTenant(reg, s.lim, "bfserved_tenant_slo_burn",
		"Error-budget burn rate against the tenant's latency SLO (1.0 = spending the budget of a 99% objective exactly).", "gauge",
		func(ts tenantStat) float64 { return ts.burn })

	// Durability (only when the daemon runs with a data dir).
	if s.store != nil {
		single(reg, "bfserved_wal_bytes", "Current write-ahead log length.", "gauge", s.store.WALSize)
		single(reg, "bfserved_wal_fsyncs_total",
			"Completed WAL fsyncs (group commit batches many appends per fsync).", "counter", s.store.WALSyncs)
		single(reg, "bfserved_checkpoints_total", "Completed snapshot checkpoints.", "counter", s.store.Checkpoints)
		m.checkpointErrors = reg.Counter("bfserved_checkpoint_errors_total", "Failed checkpoints.").With()
	}

	// Streaming ingest and per-graph state.
	single(reg, "bfserved_open_ingests", "Streaming ingests currently open (graphs in the loading state).", "gauge",
		func() int { return len(s.reg.Ingests()) })
	obsv.Func(reg, "bfserved_ingest_edges_seen", "Edges consumed so far by each open ingest.", "gauge",
		func() []obsv.Sample[int64] {
			var out []obsv.Sample[int64]
			for _, ing := range s.reg.Ingests() {
				out = append(out, obsv.Sample[int64]{Labels: []string{ing.name}, Value: ing.res.Seen()})
			}
			return out
		}, "graph")
	perGraph(reg, s.reg, "bfserved_graph_version", "Current version of each registered graph.",
		func(sn *Snapshot) uint64 { return sn.Version })
	perGraph(reg, s.reg, "bfserved_graph_edges", "Edge count of each registered graph's current version.",
		func(sn *Snapshot) int64 { return sn.Graph.NumEdges() })
	perGraph(reg, s.reg, "bfserved_graph_butterflies", "Exact butterfly count of each registered graph's current version.",
		func(sn *Snapshot) int64 { return sn.Count })
	return m
}

// single registers a label-free family whose one value read returns
// at scrape time.
func single[T obsv.Number](reg *obsv.Registry, name, help, kind string, read func() T) {
	obsv.Func(reg, name, help, kind, func() []obsv.Sample[T] { return []obsv.Sample[T]{{Value: read()}} })
}

// perTenant registers a family with one series per known tenant.
func perTenant[T obsv.Number](reg *obsv.Registry, lim *limiter, name, help, kind string, read func(tenantStat) T) {
	obsv.Func(reg, name, help, kind, func() []obsv.Sample[T] {
		stats := lim.tenantStats()
		out := make([]obsv.Sample[T], len(stats))
		for i, ts := range stats {
			out[i] = obsv.Sample[T]{Labels: []string{ts.name}, Value: read(ts)}
		}
		return out
	}, "tenant")
}

// perGraph registers a gauge family with one series per registered
// graph, read from its current snapshot.
func perGraph[T obsv.Number](reg *obsv.Registry, r *Registry, name, help string, read func(*Snapshot) T) {
	obsv.Func(reg, name, help, "gauge", func() []obsv.Sample[T] {
		snaps := r.Snapshots()
		out := make([]obsv.Sample[T], len(snaps))
		for i, sn := range snaps {
			out[i] = obsv.Sample[T]{Labels: []string{sn.Name}, Value: read(sn)}
		}
		return out
	}, "graph")
}

// observeRequest records one finished request: its route and status
// code, its latency in the request, route and tenant histograms, its
// response size, and one stage-seconds observation per top-level span
// of its trace.
func (m *obsMetrics) observeRequest(st *reqState, code int, elapsed time.Duration, bytes int64) {
	m.requests.With(st.route, strconv.Itoa(code)).Inc()
	m.requestSeconds.Observe(elapsed.Seconds())
	m.routeSeconds.With(st.route, st.api.String()).Observe(elapsed.Seconds())
	m.responseBytes.With().Observe(float64(bytes))
	if st.tenant != "" {
		m.tenantSeconds.With(st.tenant).Observe(elapsed.Seconds())
	}
	for _, stg := range st.tr.Stages() {
		m.stageSeconds.With(stg.Name).Observe(stg.Dur.Seconds())
	}
}

// spanToAPI converts a snapshot of the request's span tree into the
// wire representation.
func spanToAPI(n obsv.SpanNode) *serveapi.TraceSpan {
	t := spanNode(n)
	return &t
}

func spanNode(n obsv.SpanNode) serveapi.TraceSpan {
	out := serveapi.TraceSpan{Name: n.Name, StartUS: n.StartUS, DurUS: n.DurUS, Dropped: n.Dropped}
	for _, c := range n.Children {
		out.Children = append(out.Children, spanNode(c))
	}
	return out
}

// setTrace attaches the span tree to the response types that carry
// one (the ?debug=true path).
func setTrace(resp any, t *serveapi.TraceSpan) {
	switch v := resp.(type) {
	case *serveapi.CountResponse:
		v.Trace = t
	case *serveapi.VertexCountsResponse:
		v.Trace = t
	case *serveapi.EdgeSupportsResponse:
		v.Trace = t
	case *serveapi.EstimateResponse:
		v.Trace = t
	case *serveapi.IngestResponse:
		v.Trace = t
	case *serveapi.PeelResponse:
		v.Trace = t
	case *serveapi.MutateResponse:
		v.Trace = t
	case *serveapi.CheckpointResponse:
		v.Trace = t
	case *serveapi.Health:
		v.Trace = t
	case *serveapi.GraphInfo:
		v.Trace = t
	case *serveapi.GraphList:
		v.Trace = t
	}
}

// slowEntry is one line of the structured slow-query log.
type slowEntry struct {
	TS        string             `json:"ts"`
	Route     string             `json:"route"`
	API       string             `json:"api"`
	Method    string             `json:"method"`
	Path      string             `json:"path"`
	Status    int                `json:"status"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Trace     serveapi.TraceSpan `json:"trace"`
}
