// Package client is a small Go client for the bfserved HTTP API
// (cmd/bfserved). Request and response types live in
// butterfly/serveapi; this package adds transport, error mapping and
// convenience methods.
//
//	c := client.New("http://localhost:8080")
//	info, err := c.Register(ctx, serveapi.RegisterRequest{Name: "g", Dataset: "occupations", Scale: 10})
//	count, err := c.Count(ctx, "g", serveapi.CountRequest{})
//
// The client speaks the versioned /v1 surface: every non-2xx response
// is the uniform {error:{code,message,...}} envelope, decoded into an
// *APIError carrying the machine-readable Code and, on 429, the
// server's RetryAfterMS hint. Overload (429), deadline (504) and
// unknown-graph (404) responses additionally unwrap to ErrOverloaded,
// ErrDeadline and ErrNotFound so callers can branch with errors.Is.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"butterfly/serveapi"
)

// ErrOverloaded reports a 429: the server shed the request because its
// admission queue was full. Retry with backoff (the APIError's
// RetryAfterMS carries the server's hint).
var ErrOverloaded = errors.New("bfserved: overloaded (429)")

// ErrDeadline reports a 504: the per-request deadline expired before
// the computation finished.
var ErrDeadline = errors.New("bfserved: deadline exceeded (504)")

// ErrNotFound reports a 404: the named graph is not registered.
var ErrNotFound = errors.New("bfserved: graph not found (404)")

// ErrUnavailable reports a 503: the server is draining, a replica is
// behind its read floor, or — through a cluster router — shards are
// unreachable. Like 429, the APIError's RetryAfterMS carries the
// server's backoff hint.
var ErrUnavailable = errors.New("bfserved: unavailable (503)")

// APIError is any non-2xx response; 429/504/404/503 additionally
// unwrap to the sentinel errors above. Code is the machine-readable
// error code from the /v1 envelope (one of the serveapi.Code*
// constants; empty when talking to a pre-/v1 server). RetryAfterMS is
// the server's backoff hint, set with serveapi.CodeOverloaded (429)
// and with the 503 codes (unavailable, replica_behind).
type APIError struct {
	Status       int
	Code         string
	Message      string
	RetryAfterMS int64
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("bfserved: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("bfserved: %d: %s", e.Status, e.Message)
}

// Unwrap maps well-known statuses onto sentinel errors.
func (e *APIError) Unwrap() error {
	switch e.Status {
	case http.StatusTooManyRequests:
		return ErrOverloaded
	case http.StatusGatewayTimeout:
		return ErrDeadline
	case http.StatusNotFound:
		return ErrNotFound
	case http.StatusServiceUnavailable:
		return ErrUnavailable
	default:
		return nil
	}
}

// Client talks to one bfserved instance (or cluster router). Safe for
// concurrent use. A client built by DialCluster additionally carries
// fallback base URLs: idempotent reads that fail with a transport
// error or a 503 are retried against them in order.
type Client struct {
	base      string
	fallbacks []string
	http      *http.Client
	tenant    string
	priority  string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, client-side timeouts).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithTenant stamps every request with the X-Bf-Tenant header, so the
// server charges it to that tenant's QoS budget. Names not present in
// the server's tenant config are charged as the default tenant; the
// response echoes the tenant the server actually resolved. A tenant or
// priority set in a request body wins over the client-level value.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// WithPriority stamps every request with the X-Bf-Priority header:
// "interactive" (the default lane) or "batch". Batch requests are only
// dispatched while no interactive request is queued, so bulk loads can
// saturate the server without pushing latency onto interactive users.
func WithPriority(priority string) Option {
	return func(c *Client) { c.priority = priority }
}

// qosHeaders stamps the client-level tenant and priority on a request.
func (c *Client) qosHeaders(h http.Header) {
	if c.tenant != "" {
		h.Set(serveapi.TenantHeader, c.tenant)
	}
	if c.priority != "" {
		h.Set(serveapi.PriorityHeader, c.priority)
	}
}

// BaseURL returns the server base URL this client talks to.
func (c *Client) BaseURL() string { return c.base }

// New returns a client for the server at base (e.g.
// "http://localhost:8080"). API paths are resolved under base+"/v1".
// The default transport keeps a generous keep-alive pool to the one
// server it talks to — load drivers fan dozens of concurrent requests
// at a single base URL, and net/http's default of 2 idle connections
// per host would re-handshake most of them.
func New(base string, opts ...Option) *Client {
	c := &Client{base: base, http: &http.Client{
		Timeout: 10 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// decodeError turns a non-2xx response body into an *APIError. It
// decodes the /v1 envelope first and falls back to the legacy
// {status,error} shape so the client degrades gracefully against
// pre-/v1 servers.
func decodeError(status int, statusLine string, body io.Reader) error {
	b, _ := io.ReadAll(io.LimitReader(body, 1<<20))
	var env serveapi.ErrorEnvelope
	if json.Unmarshal(b, &env) == nil && env.Error.Message != "" {
		return &APIError{
			Status:       status,
			Code:         env.Error.Code,
			Message:      env.Error.Message,
			RetryAfterMS: env.Error.RetryAfterMS,
		}
	}
	var legacy serveapi.Error
	if json.Unmarshal(b, &legacy) == nil && legacy.Message != "" {
		return &APIError{Status: status, Message: legacy.Message}
	}
	return &APIError{Status: status, Message: statusLine}
}

// do issues one write (or otherwise non-retryable) request against
// the /v1 surface and decodes the response into out (skipped when out
// is nil). Writes never fail over: replaying one against a different
// server could double-apply it.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.roundTrip(ctx, c.base, method, path, in, out)
}

// doRead issues an idempotent read, failing over to the fallback
// bases (DialCluster) on a transport error or a 503 — a draining
// node, or a replica behind its read floor.
func (c *Client) doRead(ctx context.Context, method, path string, in, out any) error {
	err := c.roundTrip(ctx, c.base, method, path, in, out)
	if err == nil || len(c.fallbacks) == 0 || !retryableRead(err) {
		return err
	}
	for _, base := range c.fallbacks {
		if ctx.Err() != nil {
			return err
		}
		ferr := c.roundTrip(ctx, base, method, path, in, out)
		if ferr == nil || !retryableRead(ferr) {
			return ferr
		}
		err = ferr
	}
	return err
}

// retryableRead reports whether a read's failure may resolve on a
// different server: transport errors and 503s do; 404s, 4xx and
// deadline expiries do not.
func retryableRead(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusServiceUnavailable
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func (c *Client) roundTrip(ctx context.Context, base, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+"/v1"+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.qosHeaders(req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp.StatusCode, resp.Status, resp.Body)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// DialCluster probes a seed list of bfserved addresses and returns a
// client for the cluster: the first address whose /v1/healthz answers
// with Role "router" becomes the base, every other reachable address
// a read fallback. With no router in the list (a plain single-node
// deployment, or the router is down) the first reachable address
// serves as base. Idempotent reads (Count, Estimate, GraphInfo, …)
// retry against the fallbacks on transport errors and 503s; writes
// never fail over.
func DialCluster(ctx context.Context, addrs []string, opts ...Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: DialCluster needs at least one address")
	}
	var routers, others []string
	var lastErr error
	for _, a := range addrs {
		probe := New(a, opts...)
		h, err := probe.Health(ctx)
		if err != nil {
			// A draining node answers 503 but is still serving; keep it
			// as a fallback of last resort.
			if errors.Is(err, ErrUnavailable) {
				others = append(others, a)
			} else {
				lastErr = err
			}
			continue
		}
		if h.Role == "router" {
			routers = append(routers, a)
		} else {
			others = append(others, a)
		}
	}
	order := append(routers, others...)
	if len(order) == 0 {
		return nil, fmt.Errorf("client: no reachable bfserved among %d addresses: %w", len(addrs), lastErr)
	}
	c := New(order[0], opts...)
	c.fallbacks = order[1:]
	return c, nil
}

// Health fetches /v1/healthz. A draining server answers 503, surfaced
// as an APIError.
func (c *Client) Health(ctx context.Context) (serveapi.Health, error) {
	var h serveapi.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches the raw Prometheus exposition text. /metrics is
// infrastructure and stays unversioned.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	return string(b), err
}

// Register loads a graph into the server's registry.
func (c *Client) Register(ctx context.Context, req serveapi.RegisterRequest) (serveapi.GraphInfo, error) {
	var info serveapi.GraphInfo
	err := c.do(ctx, http.MethodPost, "/graphs", req, &info)
	return info, err
}

// Graphs lists the registered graphs.
func (c *Client) Graphs(ctx context.Context) ([]serveapi.GraphInfo, error) {
	var list serveapi.GraphList
	err := c.doRead(ctx, http.MethodGet, "/graphs", nil, &list)
	return list.Graphs, err
}

// GraphInfo fetches one graph's current version info.
func (c *Client) GraphInfo(ctx context.Context, name string) (serveapi.GraphInfo, error) {
	var info serveapi.GraphInfo
	err := c.doRead(ctx, http.MethodGet, "/graphs/"+url.PathEscape(name), nil, &info)
	return info, err
}

// Drop removes a graph from the registry.
func (c *Client) Drop(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/graphs/"+url.PathEscape(name), nil, nil)
}

// Count runs an exact butterfly count.
func (c *Client) Count(ctx context.Context, graph string, req serveapi.CountRequest) (serveapi.CountResponse, error) {
	var resp serveapi.CountResponse
	err := c.doRead(ctx, http.MethodPost, "/graphs/"+url.PathEscape(graph)+"/count", req, &resp)
	return resp, err
}

// VertexCounts fetches the top vertices by butterfly participation.
func (c *Client) VertexCounts(ctx context.Context, graph string, req serveapi.VertexCountsRequest) (serveapi.VertexCountsResponse, error) {
	var resp serveapi.VertexCountsResponse
	err := c.doRead(ctx, http.MethodPost, "/graphs/"+url.PathEscape(graph)+"/vertex-counts", req, &resp)
	return resp, err
}

// EdgeSupports fetches the top edges by butterfly support.
func (c *Client) EdgeSupports(ctx context.Context, graph string, req serveapi.EdgeSupportsRequest) (serveapi.EdgeSupportsResponse, error) {
	var resp serveapi.EdgeSupportsResponse
	err := c.doRead(ctx, http.MethodPost, "/graphs/"+url.PathEscape(graph)+"/edge-supports", req, &resp)
	return resp, err
}

// Estimate runs a sampling estimator on a registered graph, or — for a
// graph still streaming through ingest — returns the live reservoir
// estimate (State "loading").
func (c *Client) Estimate(ctx context.Context, graph string, req serveapi.EstimateRequest) (serveapi.EstimateResponse, error) {
	var resp serveapi.EstimateResponse
	err := c.doRead(ctx, http.MethodPost, "/graphs/"+url.PathEscape(graph)+"/estimate", req, &resp)
	return resp, err
}

// CountOrEstimate runs an exact count with ?degrade=estimate: under
// overload the server answers with a sampling estimate instead of 429.
// Exactly one of the two responses is non-nil — est when the server
// degraded (est.Degraded is set), count otherwise.
func (c *Client) CountOrEstimate(ctx context.Context, graph string, req serveapi.CountRequest) (count *serveapi.CountResponse, est *serveapi.EstimateResponse, err error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	u := c.base + "/v1/graphs/" + url.PathEscape(graph) + "/count?degrade=estimate"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	c.qosHeaders(hreq.Header)
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, nil, decodeError(resp.StatusCode, resp.Status, resp.Body)
	}
	if resp.Header.Get("X-Degraded") != "" {
		est = &serveapi.EstimateResponse{}
		return nil, est, json.NewDecoder(resp.Body).Decode(est)
	}
	count = &serveapi.CountResponse{}
	return count, nil, json.NewDecoder(resp.Body).Decode(count)
}

// IngestOpen opens a streaming ingest: a graph in the loading state
// that accepts edge batches (IngestAppend) and answers approximate
// queries from a reservoir estimator until sealed.
func (c *Client) IngestOpen(ctx context.Context, req serveapi.IngestRequest) (serveapi.IngestResponse, error) {
	var resp serveapi.IngestResponse
	err := c.do(ctx, http.MethodPost, "/ingest", req, &resp)
	return resp, err
}

// IngestStatus fetches the live state of an open ingest.
func (c *Client) IngestStatus(ctx context.Context, name string) (serveapi.IngestResponse, error) {
	var resp serveapi.IngestResponse
	err := c.do(ctx, http.MethodGet, "/ingest/"+url.PathEscape(name), nil, &resp)
	return resp, err
}

// IngestAppend streams a batch of edges into an open ingest as NDJSON
// (one [u,v] line per edge). The response reports how many edges were
// accepted and the updated reservoir estimate.
func (c *Client) IngestAppend(ctx context.Context, name string, edges [][2]int) (serveapi.IngestResponse, error) {
	var resp serveapi.IngestResponse
	var buf bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&buf, "[%d,%d]\n", e[0], e[1])
	}
	u := c.base + "/v1/ingest/" + url.PathEscape(name) + "/edges"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, &buf)
	if err != nil {
		return resp, err
	}
	hreq.Header.Set("Content-Type", "application/x-ndjson")
	c.qosHeaders(hreq.Header)
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return resp, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode/100 != 2 {
		return resp, decodeError(hresp.StatusCode, hresp.Status, hresp.Body)
	}
	return resp, json.NewDecoder(hresp.Body).Decode(&resp)
}

// IngestSeal promotes an open ingest to a registered, exact-countable
// graph at version 1.
func (c *Client) IngestSeal(ctx context.Context, name string) (serveapi.GraphInfo, error) {
	var info serveapi.GraphInfo
	err := c.do(ctx, http.MethodPost, "/ingest/"+url.PathEscape(name)+"/seal", nil, &info)
	return info, err
}

// IngestAbort discards an open ingest.
func (c *Client) IngestAbort(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/ingest/"+url.PathEscape(name), nil, nil)
}

// Peel runs a k-tip or k-wing peel.
func (c *Client) Peel(ctx context.Context, graph string, req serveapi.PeelRequest) (serveapi.PeelResponse, error) {
	var resp serveapi.PeelResponse
	err := c.doRead(ctx, http.MethodPost, "/graphs/"+url.PathEscape(graph)+"/peel", req, &resp)
	return resp, err
}

// Checkpoint forces the daemon to snapshot every graph and compact
// its write-ahead log. Fails with a 400 APIError when the daemon runs
// without -data-dir.
func (c *Client) Checkpoint(ctx context.Context) (serveapi.CheckpointResponse, error) {
	var resp serveapi.CheckpointResponse
	err := c.do(ctx, http.MethodPost, "/admin/checkpoint", nil, &resp)
	return resp, err
}

// Mutate applies an edge mutation batch, producing a new graph
// version.
func (c *Client) Mutate(ctx context.Context, graph string, req serveapi.MutateRequest) (serveapi.MutateResponse, error) {
	var resp serveapi.MutateResponse
	err := c.do(ctx, http.MethodPost, "/graphs/"+url.PathEscape(graph)+"/mutate", req, &resp)
	return resp, err
}
