package serve

// Streaming ingestion: the "loading" half of the approximate-answer
// tier. A graph enters the registry either fully formed (POST
// /v1/graphs) or as an open ingest (POST /v1/ingest) that receives
// edges in NDJSON batches. While the ingest is open the graph has no
// snapshot — exact queries answer 409 loading — but /v1/estimate
// answers in O(1) from a FLEET reservoir estimator that tracks the
// stream. Sealing replays the retained edge log into a normal
// registered graph (version 1, exact count seeded, WAL-logged under a
// persister); until then the ingest is volatile — a crash loses it,
// which is the honest contract for data that was never acked durable.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"butterfly"
	"butterfly/internal/estimate"
	"butterfly/serveapi"
)

// ErrLoading reports an exact query against a graph whose ingest is
// still open: there is no snapshot to count yet.
type ErrLoading struct{ Name string }

func (e ErrLoading) Error() string {
	return fmt.Sprintf("graph %q is still loading; use the estimate endpoint or seal the ingest", e.Name)
}

// ErrNotIngesting reports an ingest operation (append, seal, abort)
// against a name with no open ingest — typically already sealed.
type ErrNotIngesting struct{ Name string }

func (e ErrNotIngesting) Error() string {
	return fmt.Sprintf("graph %q has no open ingest", e.Name)
}

// ingestState is one open streaming ingest: the reservoir estimator
// answering approximate queries plus the full edge log replayed at
// seal time. The reservoir has its own lock (snapshots never block
// appends for long); mu serializes the edge log and the seal
// transition.
type ingestState struct {
	name string
	m, n int
	res  *estimate.Reservoir

	mu      sync.Mutex
	edges   [][2]int
	sealing bool
}

// append applies one validated batch: reservoir first (which rejects
// the whole batch on any out-of-range endpoint, applying nothing),
// then the edge log. Returns the number of edges accepted.
func (ing *ingestState) append(batch [][2]int) (int, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.sealing {
		return 0, ErrNotIngesting{ing.name}
	}
	if err := ing.res.AddBatch(batch); err != nil {
		return 0, badRequestError{err.Error()}
	}
	ing.edges = append(ing.edges, batch...)
	return len(batch), nil
}

// status renders the live wire view of the ingest.
func (ing *ingestState) status() serveapi.IngestResponse {
	s := ing.res.Snapshot()
	return serveapi.IngestResponse{
		Graph:         ing.name,
		State:         "loading",
		M:             ing.m,
		N:             ing.n,
		EdgesSeen:     s.EdgesSeen,
		ReservoirSize: s.ReservoirSize,
		ReservoirCap:  s.Capacity,
		Estimate:      s.Estimate,
		StdErr:        s.StdErr,
		CI95:          s.CI95,
		Exact:         s.Exact,
	}
}

// --- registry side ---

// OpenIngest opens a streaming ingest for name over an m×n vertex set
// with a reservoir of the given capacity. replace supersedes an
// existing registered graph (logged as a drop under a persister) or
// open ingest of the same name.
func (r *Registry) OpenIngest(name string, m, n, capacity int, seed int64, replace bool) (*ingestState, error) {
	if name == "" {
		return nil, badReqf("name is required")
	}
	res, err := estimate.NewReservoir(m, n, capacity, seed)
	if err != nil {
		return nil, badRequestError{err.Error()}
	}
	ing := &ingestState{name: name, m: m, n: n, res: res}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		if !replace {
			return nil, ErrExists{name}
		}
		// The registered graph leaves the registry now; under a
		// persister that departure must be durable before readers can
		// observe the name as loading.
		if r.persist != nil {
			if err := r.persist.LogDrop(name); err != nil {
				return nil, DurabilityError{err}
			}
		}
		delete(r.entries, name)
	}
	if _, ok := r.ingests[name]; ok && !replace {
		return nil, ErrExists{name}
	}
	r.ingests[name] = ing
	return ing, nil
}

// Ingest returns the open ingest for name, if any.
func (r *Registry) Ingest(name string) (*ingestState, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ing, ok := r.ingests[name]
	return ing, ok
}

// Ingests returns every open ingest, sorted by name.
func (r *Registry) Ingests() []*ingestState {
	r.mu.RLock()
	out := make([]*ingestState, 0, len(r.ingests))
	for _, ing := range r.ingests {
		out = append(out, ing)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// SealIngest promotes an open ingest to a registered graph: the
// retained edge log is replayed into an immutable graph (duplicates
// collapse), the exact count is seeded, and the result is published at
// version 1 exactly like a register — including the WAL append under a
// persister, which is the moment the graph first becomes durable.
// Further appends to the ingest fail from the moment sealing starts.
func (r *Registry) SealIngest(name string, stage func(name string, d time.Duration)) (*Snapshot, error) {
	r.mu.RLock()
	ing, ok := r.ingests[name]
	r.mu.RUnlock()
	if !ok {
		return nil, ErrNotIngesting{name}
	}
	ing.mu.Lock()
	if ing.sealing {
		ing.mu.Unlock()
		return nil, ErrNotIngesting{name}
	}
	ing.sealing = true
	edges := ing.edges
	ing.mu.Unlock()

	t0 := time.Now()
	g, err := butterfly.FromEdges(ing.m, ing.n, edges)
	if stage != nil {
		stage("seal.build", time.Since(t0))
	}
	if err != nil { // unreachable: every edge was validated on append
		ing.mu.Lock()
		ing.sealing = false
		ing.mu.Unlock()
		return nil, err
	}
	// replace=true atomically swaps loading → registered under r.mu
	// (RegisterObserved removes the ingest entry when it publishes).
	snap, err := r.RegisterObserved(name, g, true, stage)
	if err != nil {
		ing.mu.Lock()
		ing.sealing = false
		ing.mu.Unlock()
		return nil, err
	}
	return snap, nil
}

// AbortIngest discards an open ingest. Aborting a sealing ingest
// fails: its graph is already on the way into the registry.
func (r *Registry) AbortIngest(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ing, ok := r.ingests[name]
	if !ok {
		return ErrNotIngesting{name}
	}
	ing.mu.Lock()
	sealing := ing.sealing
	ing.mu.Unlock()
	if sealing {
		return ErrNotIngesting{name}
	}
	delete(r.ingests, name)
	return nil
}

// --- HTTP side ---

// ingestInfo renders an open ingest as a GraphInfo row for listings:
// version 0, state "loading", the edge count seen so far and the
// current reservoir estimate (rounded) in place of the exact count.
func ingestInfo(ing *ingestState) serveapi.GraphInfo {
	s := ing.res.Snapshot()
	info := serveapi.GraphInfo{
		Name:        ing.name,
		State:       "loading",
		NumV1:       ing.m,
		NumV2:       ing.n,
		NumEdges:    s.EdgesSeen,
		Butterflies: int64(s.Estimate + 0.5),
	}
	if ing.m > 0 && ing.n > 0 {
		info.Density = float64(s.EdgesSeen) / (float64(ing.m) * float64(ing.n))
	}
	return info
}

func (s *Server) handleIngestOpen(w http.ResponseWriter, r *http.Request) {
	root := stateOf(r).root()
	psp := root.Child("parse")
	var req serveapi.IngestRequest
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
	if req.Reservoir < 0 {
		psp.End()
		s.writeError(w, r, badReqf("reservoir must be ≥ 0, got %d", req.Reservoir))
		return
	}
	psp.End()
	capacity := req.Reservoir
	if capacity == 0 {
		capacity = s.cfg.DefaultReservoir
	}
	rsp := root.Child("registry")
	ing, err := s.reg.OpenIngest(req.Name, req.M, req.N, capacity, req.Seed, req.Replace)
	rsp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := ing.status()
	s.writeOK(w, r, http.StatusCreated, &resp)
}

func (s *Server) handleIngestStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sp := stateOf(r).root().Child("registry")
	ing, ok := s.reg.Ingest(name)
	sp.End()
	if !ok {
		s.writeError(w, r, ErrNotIngesting{name})
		return
	}
	resp := ing.status()
	s.writeOK(w, r, http.StatusOK, &resp)
}

// ingestChunk is the number of edges applied to the reservoir per
// batch while streaming a request body: large enough to amortize the
// estimator's lock, small enough that mid-request estimate queries see
// the stream advance.
const ingestChunk = 4096

func (s *Server) handleIngestAppend(w http.ResponseWriter, r *http.Request) {
	root := stateOf(r).root()
	name := r.PathValue("name")
	ing, ok := s.reg.Ingest(name)
	if !ok {
		s.writeError(w, r, ErrNotIngesting{name})
		return
	}
	// Reservoir replacements run wedge sweeps; bound their concurrency
	// like any other computation.
	asp := root.Child("admission")
	err := s.lim.acquire(r.Context())
	asp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer s.lim.release()
	start := time.Now()
	ksp := root.Child("ingest")
	accepted, err := s.ingestEdges(ing, r.Body)
	ksp.End()
	if accepted > 0 {
		s.obs.ingestEdges.With().Add(uint64(accepted))
	}
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := ing.status()
	resp.Accepted = accepted
	resp.ElapsedMS = time.Since(start).Milliseconds()
	s.writeOK(w, r, http.StatusOK, &resp)
}

// ingestEdges consumes an NDJSON edge stream — one "[u,v]" JSON array
// per line, blank lines skipped — applying it in chunks so the
// reservoir (and every concurrent estimate query) advances while the
// body is still uploading. On a malformed line or invalid endpoint the
// current chunk is discarded but earlier chunks stay applied; the
// response reports how far the stream got via the error message, and
// the ingest remains open.
func (s *Server) ingestEdges(ing *ingestState, body io.Reader) (int64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var total int64
	chunk := make([][2]int, 0, ingestChunk)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		n, err := ing.append(chunk)
		total += int64(n)
		chunk = chunk[:0]
		return err
	}
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var e [2]int
		if err := json.Unmarshal(b, &e); err != nil {
			return total, badReqf("edge line %d: %v (want [u,v]); %d edges were applied", line, err, total)
		}
		chunk = append(chunk, e)
		if len(chunk) == ingestChunk {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return total, badReqf("reading edge stream at line %d: %v; %d edges were applied", line, err, total)
	}
	if err := flush(); err != nil {
		return total, err
	}
	return total, nil
}

func (s *Server) handleIngestSeal(w http.ResponseWriter, r *http.Request) {
	root := stateOf(r).root()
	name := r.PathValue("name")
	// Sealing seeds the exact count — the expensive step; admit it
	// like a query.
	asp := root.Child("admission")
	err := s.lim.acquire(r.Context())
	asp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	defer s.lim.release()
	ssp := root.Child("seal")
	snap, err := s.reg.SealIngest(name, ssp.Hook())
	ssp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.nudgeCheckpoint()
	info := snapInfo(snap)
	s.writeOK(w, r, http.StatusOK, &info)
}

func (s *Server) handleIngestAbort(w http.ResponseWriter, r *http.Request) {
	sp := stateOf(r).root().Child("registry")
	err := s.reg.AbortIngest(r.PathValue("name"))
	sp.End()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
