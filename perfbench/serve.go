package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/serve"
	"butterfly/serveapi"
)

// server is an in-process bfserved (default config, cache on) behind a
// loopback listener, with a switchable timer around its ServeHTTP.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	timer  *handlerTimer
	served chan error
}

func startServer(classify func(path string) string) (*server, error) {
	s := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &handlerTimer{next: s, classify: classify, sum: map[string]time.Duration{}, n: map[string]int64{}}
	conns := runtime.NumCPU()
	sv := &server{
		srv:    s,
		hs:     &http.Server{Handler: t},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
		timer:  t,
		served: make(chan error, 1),
	}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	return sv, nil
}

// close shuts the listener and connections down and waits for the
// serving goroutine to exit.
func (sv *server) close() {
	sv.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if sv.hs.Shutdown(ctx) != nil {
		sv.hs.Close()
	}
	<-sv.served
	sv.srv.Close()
}

// handlerTimer times the server's ServeHTTP per request class while
// on; off, it adds one atomic load.
type handlerTimer struct {
	next     http.Handler
	classify func(path string) string
	on       atomic.Bool
	mu       sync.Mutex
	sum      map[string]time.Duration
	n        map[string]int64
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if c := t.classify(r.URL.Path); c != "" {
		t.mu.Lock()
		t.sum[c] += d
		t.n[c]++
		t.mu.Unlock()
	}
}

// totals returns the summed handler time and request count over the
// given classes.
func (t *handlerTimer) totals(classes ...string) (time.Duration, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	var n int64
	for _, c := range classes {
		d += t.sum[c]
		n += t.n[c]
	}
	return d, n
}

func (t *handlerTimer) meanMS(classes ...string) float64 {
	d, n := t.totals(classes...)
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

type reply struct {
	status int
	cache  string // X-Cache header
	body   []byte
}

func (sv *server) do(method, path string, body []byte) (reply, error) {
	var buf bytes.Buffer
	return sv.doInto(&buf, method, path, body)
}

// doInto is do with the reply body read into buf, which the caller
// reuses across requests so the load generator adds little garbage to
// the process the server shares.
func (sv *server) doInto(buf *bytes.Buffer, method, path string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, sv.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: buf.Bytes()}, err
}

// register uploads s as an inline edge list and returns the POST's
// latency, the registered butterfly count, and the body size.
func (sv *server) register(s standIn) (time.Duration, int64, int, error) {
	body, err := json.Marshal(serveapi.RegisterRequest{Name: s.name, M: s.m, N: s.n, Edges: s.edges})
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	rep, err := sv.do("POST", "/v1/graphs", body)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("register %s: %w", s.name, err)
	}
	if rep.status != http.StatusCreated {
		return 0, 0, 0, fmt.Errorf("register %s: HTTP %d: %s", s.name, rep.status, rep.body)
	}
	var info serveapi.GraphInfo
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return 0, 0, 0, fmt.Errorf("register %s: %w", s.name, err)
	}
	return d, info.Butterflies, len(body), nil
}

// scrape reads the server's /metrics exposition as series → value.
func (sv *server) scrape() (map[string]float64, error) {
	rep, err := sv.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(rep.body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serveStages are the top-level request stages bfserved exports in
// bfserved_stage_seconds.
var serveStages = []string{"parse", "registry", "cache", "admission", "kernel", "mutate", "render"}

// stageDeltas sets serve.stage.<stage>_ms to the mean duration per
// request that passed through the stage between two scrapes, and
// serve.coalesced to the number of coalesced requests. Only
// registrations load a graph, and they all precede a, so the load
// stage is averaged over everything before a instead.
func stageDeltas(v map[string]float64, a, b map[string]float64) {
	if n := a[`bfserved_stage_seconds_count{stage="load"}`]; n > 0 {
		v["serve.stage.load_ms"] = a[`bfserved_stage_seconds_sum{stage="load"}`] * 1e3 / n
	}
	for _, st := range serveStages {
		sum := fmt.Sprintf("bfserved_stage_seconds_sum{stage=%q}", st)
		cnt := fmt.Sprintf("bfserved_stage_seconds_count{stage=%q}", st)
		if n := b[cnt] - a[cnt]; n > 0 {
			v["serve.stage."+st+"_ms"] = (b[sum] - a[sum]) * 1e3 / n
		}
	}
	v["serve.coalesced"] = b["bfserved_coalesced_total"] - a["bfserved_coalesced_total"]
}

// httpCounters are the client-side tallies of a measured phase.
type httpCounters struct {
	requests int64
	clientD  time.Duration // Σ send → response read
	hits     int64         // X-Cache: hit
	queries  int64         // responses that carry X-Cache
}

func (c *httpCounters) note(d time.Duration, cache string) {
	c.requests++
	c.clientD += d
	if cache != "" {
		c.queries++
		if cache == "hit" {
			c.hits++
		}
	}
}

func (c *httpCounters) add(o httpCounters) {
	c.requests += o.requests
	c.clientD += o.clientD
	c.hits += o.hits
	c.queries += o.queries
}

// finish sets the client/handler split of the traced phase.
func (c *httpCounters) finish(v map[string]float64, t *handlerTimer, classes ...string) {
	hd, hn := t.totals(classes...)
	if c.requests > 0 && hn > 0 {
		v["http.overhead_ms"] = ms(c.clientD)/float64(c.requests) - ms(hd)/float64(hn)
	}
	if c.queries > 0 {
		v["serve.cache_hit_ratio"] = float64(c.hits) / float64(c.queries)
	}
}
