package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"butterfly/serveapi"
)

const (
	// readRate is serve-read's fixed open-loop arrival rate in
	// requests per second, never adapted per run, so two runs offer
	// the same load. It is about a quarter of the closed-loop cache-hit
	// capacity of a 2-CPU machine with nproc clients (about 22 000/s):
	// at half, each GC cycle pushed the server into a backlog.
	readRate = 5000
	// readTailQ is serve-read's reported tail percentile; a run holds
	// far more than the 1000 samples p99 needs.
	readTailQ = 0.99
)

// readGraphs are the stand-ins serve-read uploads.
var readGraphs = []string{"arxiv-cond-mat", "producers"}

// readRoutes is the dashboard mix per graph: route and weight. The
// weights are those of the same three read routes in bfload's default
// -mix (count=5, vertex=1, estimate=1), the repository's own
// description of read traffic.
var readRoutes = []struct {
	route  string
	weight int
}{{"count", 5}, {"vertex-counts", 1}, {"estimate", 1}}

// readQuery is one query key with its set-up-time answer.
type readQuery struct {
	path string
	want []byte
}

type readState struct {
	sv      *server
	queries []readQuery
	mix     []int // query index per weight unit
	genS    float64
	buildS  float64
	bodyMB  float64
}

func classifyRead(path string) string {
	if path == "/metrics" {
		return ""
	}
	return "read"
}

// setupRead generates and uploads the graphs, then requests every
// query key twice: the first answer (a cache miss) is checked against
// the oracle and kept; the second must be a cache hit with the same
// bytes.
func setupRead(cfg config, out *outcome) (*readState, error) {
	st := &readState{}
	var sets []standIn
	for _, name := range readGraphs {
		s, gd, err := makeStandIn(name, cfg.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		st.genS += sec(gd)
		if cfg.trace {
			t0 := time.Now()
			if _, err := s.build(); err != nil {
				return nil, err
			}
			st.buildS += sec(time.Since(t0))
		}
		sets = append(sets, s)
	}
	sv, err := startServer(classifyRead)
	if err != nil {
		return nil, err
	}
	st.sv = sv
	for _, s := range sets {
		_, c, size, err := sv.register(s)
		if err != nil {
			sv.close()
			return nil, err
		}
		st.bodyMB += float64(size) / (1 << 20)
		want := cfg.oracle[s.name]
		out.check(c == want, "register %s: %d butterflies, expected %d", s.name, c, want)
		for _, r := range readRoutes {
			path := "/v1/graphs/" + s.name + "/" + r.route
			rep, err := sv.do("POST", path, []byte("{}"))
			if err != nil {
				sv.close()
				return nil, err
			}
			out.check(rep.status == http.StatusOK && checkReadAnswer(r.route, rep.body, want), "%s: HTTP %d %s", path, rep.status, rep.body)
			for i := 0; i < r.weight; i++ {
				st.mix = append(st.mix, len(st.queries))
			}
			st.queries = append(st.queries, readQuery{path: path, want: rep.body})
		}
	}
	for _, q := range st.queries {
		rep, err := sv.do("POST", q.path, []byte("{}"))
		if err != nil {
			sv.close()
			return nil, err
		}
		out.check(rep.cache == "hit" && bytes.Equal(rep.body, q.want), "%s: repeat answer is not the cached one (X-Cache %q)", q.path, rep.cache)
	}
	return st, nil
}

// checkReadAnswer checks a first answer against the exact count.
func checkReadAnswer(route string, body []byte, count int64) bool {
	switch route {
	case "count":
		var r serveapi.CountResponse
		return json.Unmarshal(body, &r) == nil && r.Butterflies == count
	case "vertex-counts":
		// Per-vertex counts sum to twice the total.
		var r serveapi.VertexCountsResponse
		return json.Unmarshal(body, &r) == nil && r.Total == 2*count && len(r.Vertices) > 0
	default:
		var r serveapi.EstimateResponse
		return json.Unmarshal(body, &r) == nil && r.Estimate > 0
	}
}

// readPhase is what one open-loop phase measured.
type readPhase struct {
	lat, late []float64 // ms from due time; ms the send ran late
	tally     httpCounters
	attempted int64
	failed    int64
}

// openLoop offers the mix at readRate for d. A pacer releases each
// request at its due time to nproc workers, which send them; a request
// is timed from its due time, so a stall also charges the requests it
// delays.
func (st *readState) openLoop(d time.Duration, rng *rand.Rand) *readPhase {
	n := int(readRate * d.Seconds())
	seq := make([]int, n)
	for i := range seq {
		seq[i] = st.mix[rng.Intn(len(st.mix))]
	}
	// Sized to the number of sends, so the pacer never blocks: a
	// stalled server grows the backlog instead of slowing arrivals.
	due := make(chan int, n)
	ph := &readPhase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	period := time.Second / readRate
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine readPhase
			var buf bytes.Buffer
			body := []byte("{}")
			for i := range due {
				dueAt := start.Add(time.Duration(i) * period)
				sent := time.Now()
				q := st.queries[seq[i]]
				rep, err := st.sv.doInto(&buf, "POST", q.path, body)
				done := time.Now()
				mine.attempted++
				if err != nil || rep.status != http.StatusOK || !bytes.Equal(rep.body, q.want) {
					mine.failed++
					continue
				}
				mine.lat = append(mine.lat, ms(done.Sub(dueAt)))
				mine.late = append(mine.late, ms(sent.Sub(dueAt)))
				mine.tally.note(done.Sub(sent), rep.cache)
			}
			mu.Lock()
			defer mu.Unlock()
			ph.lat = append(ph.lat, mine.lat...)
			ph.late = append(ph.late, mine.late...)
			ph.attempted += mine.attempted
			ph.failed += mine.failed
			ph.tally.add(mine.tally)
		}()
	}
	pace(start, period, n, due)
	wg.Wait()
	return ph
}

// pace sends 0..n-1 on due, each at start + i·period, then closes it.
// Go's timers wake idle processes at millisecond granularity, far
// coarser than the sub-millisecond gaps between arrivals, so the pacer
// sleeps in nanosleep on a thread of its own.
func pace(start time.Time, period time.Duration, n int, due chan<- int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(due)
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * period)
		for wait := time.Until(at); wait > 0; wait = time.Until(at) {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
		}
		due <- i
	}
}

func (ph *readPhase) record(out *outcome) {
	out.attempted += ph.attempted
	out.failed += ph.failed
	if ph.failed > 0 {
		out.notef("%d of %d reads failed or differed from their set-up answer", ph.failed, ph.attempted)
	}
}

func serveRead(cfg config, setups int) (*outcome, error) {
	out := newOutcome()
	out.params["datasets"] = readGraphs
	out.params["read_rate_per_s"] = readRate
	out.params["mix"] = "per graph: count 5, vertex-counts (top 100) 1, estimate 1 (bfload's default -mix)"
	out.params["clients"] = runtime.NumCPU()
	out.params["op"] = "one cached read, timed from its due time"
	out.params["tail_quantile"] = readTailQ
	st, err := setUp(setups, out, func() (*readState, error) { return setupRead(cfg, out) },
		func(st *readState) { st.sv.close() })
	if err != nil {
		return nil, err
	}
	defer st.sv.close()
	rng := rand.New(rand.NewSource(cfg.seed))

	if !cfg.trace {
		ph := st.openLoop(cfg.window(), rng)
		ph.record(out)
		reportReads(out, ph)
		return out, nil
	}

	v := out.values
	half := cfg.window() / 2
	a, err := st.sv.scrape()
	if err != nil {
		return nil, err
	}
	rw := beginRuntimeWindow()
	plain := st.openLoop(half, rng)
	plain.record(out)
	v["runtime.gc_pause_ms"], v["runtime.gc_cycles"], v["runtime.alloc_kb_per_op"] = rw.end(plain.attempted)
	b, err := st.sv.scrape()
	if err != nil {
		return nil, err
	}
	stageDeltas(v, a, b)
	v["load.late_p99_ms"] = quantile(plain.late, 0.99)

	st.sv.timer.on.Store(true)
	traced := st.openLoop(half, rng)
	st.sv.timer.on.Store(false)
	traced.record(out)
	reportReads(out, traced)
	traced.tally.finish(v, st.sv.timer, "read")
	v["serve.handler.read_ms"] = st.sv.timer.meanMS("read")
	v["gen.generate_s"] = st.genS
	v["graph.build_s"] = st.buildS
	v["http.register_body_mb"] = st.bodyMB
	v["trace.overhead_ms"] = median(traced.lat) - median(plain.lat)
	return out, nil
}

func reportReads(out *outcome, ph *readPhase) {
	out.values["op_p50_ms"] = median(ph.lat)
	out.notef("%-26s %14.6g ms (p%g of %d reads at %d/s)", "op tail", quantile(ph.lat, readTailQ), readTailQ*100, len(ph.lat), readRate)
	out.notef("%-26s %14.6g ms", "read_p50_ms", median(ph.lat))
	out.notef("%-26s %14.6g ms", "read_p99_ms", quantile(ph.lat, 0.99))
	out.notef("%-26s %14.6g ms", "load.late_p99_ms", quantile(ph.late, 0.99))
}
