package cluster

// Scatter-gather cross-shard counting. A graph registered with
// partitions=P has its V1 side hash-split into P partition graphs
// placed on (up to P distinct) shards. Each shard's wedge partial map
// β^s(v,w) — wedges centered at its resident V1 vertices — is fetched
// via /v1/internal/partial, k-way merged at the router, and reduced
// by Σ C(Σ_s β^s, 2). The split is over wedge CENTERS, so every wedge
// lives on exactly one shard and the reduction is exact: the binomial
// is applied once per V2 pair, after summing, never per shard (C is
// not additive).
//
// When a partition is unreachable, the merge over the L live
// partitions counts exactly the butterflies whose both V1 vertices
// landed in live partitions — a (L/P)² vertex sample — so the router
// degrades to estimate = live × (P/L)², the partition-sampling
// estimator, marked Degraded with the X-Degraded header.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"butterfly"
	"butterfly/internal/obsv"
	"butterfly/serveapi"
)

// partialEpochHeader mirrors serve.PartialEpochHeader: the shard's
// partial-log activation token, pinned with the partials and echoed
// back in `?epoch=`.
const partialEpochHeader = "X-Bf-Partial-Epoch"

// partHomes places the P partitions of a graph: partition i lives on
// element i mod H of the graph's ring successor list, H = min(P,
// shards). Deterministic in (name, ring), so a restarted router
// re-derives placement without any stored state.
func (rt *Router) partHomes(ring *Ring, name string, p int) []string {
	homes := ring.Successors(name, p)
	if len(homes) == 0 {
		return nil
	}
	out := make([]string, p)
	for i := range out {
		out[i] = homes[i%len(homes)]
	}
	return out
}

// partialResult is one partition's gathered wedge partial map.
type partialResult struct {
	part     int
	shard    string
	version  uint64
	partials []butterfly.WedgePartial
	kind     string // full | delta | noop — how the map was obtained
	err      error
	elapsed  time.Duration
}

// fetchPartial fetches one partition's partial map. With a pinned copy
// it asks for the delta since the pinned version and applies it;
// without one (or when the shard answered with a full frame because
// its history was evicted) it decodes the full map.
func (rt *Router) fetchPartial(ctx context.Context, shard, pname string, cp *cachedPartial) (version, epoch uint64, partials []butterfly.WedgePartial, kind string, err error) {
	path := "/v1/internal/partial/" + url.PathEscape(pname)
	if cp != nil {
		path += fmt.Sprintf("?since=%d&epoch=%d", cp.version, cp.epoch)
	}
	sr, err := rt.forward(ctx, shard, http.MethodGet, path, "", 0, nil, nil)
	if err != nil {
		return 0, 0, nil, "", err
	}
	if sr.status != http.StatusOK {
		return 0, 0, nil, "", fmt.Errorf("shard %s: status %d: %s", shard, sr.status, truncate(sr.body, 200))
	}
	epoch, _ = strconv.ParseUint(sr.header.Get(partialEpochHeader), 10, 64)
	if serveapi.PartialFrameKind(sr.body) == serveapi.PartialFrameDelta {
		from, to, delta, derr := serveapi.DecodePartialDelta(sr.body)
		if derr == nil && (cp == nil || from != cp.version) {
			derr = fmt.Errorf("shard %s: delta frame from v%d does not match pinned copy", shard, from)
		}
		var merged []butterfly.WedgePartial
		if derr == nil {
			merged, derr = butterfly.ApplyWedgePartialDelta(cp.partials, delta)
		}
		if derr != nil {
			return 0, 0, nil, "", derr
		}
		kind = "delta"
		if to == from {
			kind = "noop"
		}
		if epoch == 0 {
			epoch = cp.epoch
		}
		return to, epoch, merged, kind, nil
	}
	version, partials, err = serveapi.DecodePartial(sr.body)
	if err != nil {
		return 0, 0, nil, "", err
	}
	return version, epoch, partials, "full", nil
}

// gatherPartials fetches every partition's partial map concurrently,
// each under its own PartialTimeout deadline, so one dead shard
// delays the answer by at most the deadline rather than the client's
// full patience. Partitions with a pinned copy in pc sync by delta
// (changed keys only — usually orders of magnitude smaller than the
// map) and successful fetches re-pin, so steady-state gathers ship
// almost no partial data.
func (rt *Router) gatherPartials(ctx context.Context, name string, p int, homes []string, pc *partialCache) []partialResult {
	results := make([]partialResult, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.PartialTimeout)
			defer cancel()
			shard := homes[i]
			pname := partName(name, i, p)
			cp := pc.snapshot(i)
			version, epoch, partials, kind, err := rt.fetchPartial(pctx, shard, pname, cp)
			if err != nil && cp != nil && pctx.Err() == nil {
				// A broken delta path (stale pin, frame the pin cannot
				// absorb) must not read as a dead shard: drop the pin
				// and fetch cold once.
				version, epoch, partials, kind, err = rt.fetchPartial(pctx, shard, pname, nil)
			}
			res := partialResult{part: i, shard: shard, kind: kind, err: err}
			if err == nil {
				res.version, res.partials = version, partials
				pc.store(i, &cachedPartial{version: version, epoch: epoch, partials: partials})
				switch {
				case kind == "delta" || kind == "noop":
					rt.partialHits.With(kind).Inc()
				case cp == nil:
					rt.partialMisses.With("cold").Inc()
				default:
					rt.partialMisses.With("full").Inc()
				}
			}
			res.elapsed = time.Since(start)
			results[i] = res
		}(i)
	}
	wg.Wait()
	return results
}

// gatherMerged answers one partitioned reduction, from the merged pin
// when the graph is unchanged since the last all-live gather — a pure
// metadata check, no shard traffic — and by (delta-synced) scatter-
// gather otherwise. An all-live result re-pins the merged count under
// the generation observed before the gather, so a racing mutation can
// never be papered over by a stale pin.
func (rt *Router) gatherMerged(ctx context.Context, name string, m *graphMeta, homes []string) gatherOutcome {
	p := m.partitions
	gen, mc, ok := m.pc.mergedSnapshot(p)
	if ok {
		rt.partialHits.With("merged").Inc()
		return gatherOutcome{count: mc.count, sumVersion: mc.sumVersion, live: p, p: p, fromCache: true}
	}
	results := rt.gatherPartials(ctx, name, p, homes, &m.pc)
	count, sumVersion, live := reduce(results)
	out := gatherOutcome{count: count, sumVersion: sumVersion, live: live, p: p}
	for _, res := range results {
		if res.err != nil {
			out.firstErr = res.err
			break
		}
	}
	if live == p {
		m.pc.setMerged(gen, mergedCount{count: count, sumVersion: sumVersion})
	}
	return out
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

// reduce merges the live partials and reports how many partitions
// contributed.
func reduce(results []partialResult) (count int64, sumVersion uint64, live int) {
	parts := make([][]butterfly.WedgePartial, 0, len(results))
	for _, res := range results {
		if res.err == nil {
			parts = append(parts, res.partials)
			sumVersion += res.version
			live++
		}
	}
	return butterfly.MergeWedgePartials(parts...), sumVersion, live
}

// scatterSpan records the scatter-gather breakdown on a trace (shown
// under ?debug=true).
func scatterSpan(root *obsv.Span, results []partialResult) {
	sp := root.Child("scatter")
	for _, res := range results {
		name := fmt.Sprintf("partial[%d] %s", res.part, res.shard)
		if res.kind != "" {
			name += " (" + res.kind + ")"
		}
		if res.err != nil {
			name += " (failed)"
		}
		sp.Stage(name, res.elapsed)
	}
	sp.End()
}

// partitionedCount answers count (asEstimate=false) or estimate
// (asEstimate=true) for a partitioned graph. With every partition
// live the answer is exact either way; with L < P live, count
// degrades to the partition-sampling estimate (X-Degraded:
// partitions) instead of failing, and estimate reports the same
// number as a first-class approximate answer.
//
// The fast path: concurrent requests coalesce onto one gather per
// (graph, cache generation), and an unchanged graph answers straight
// from the merged pin (X-Cache: merged) without touching a shard.
// ?debug=true bypasses both — its purpose is to trace a real scatter.
func (rt *Router) partitionedCount(w http.ResponseWriter, r *http.Request, name string, m *graphMeta, asEstimate bool) {
	p := m.partitions
	ring := rt.currentRing()
	homes := rt.partHomes(ring, name, p)
	if homes == nil {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, "no shards configured", 1000)
		return
	}
	debug := r.URL.Query().Get("debug") == "true"
	start := time.Now()

	var out gatherOutcome
	var tr *obsv.Trace
	if debug {
		tr = obsv.NewTrace("request")
		gen := m.pc.generation()
		results := rt.gatherPartials(r.Context(), name, p, homes, &m.pc)
		scatterSpan(tr.Root(), results)
		msp := tr.Root().Child("merge")
		count, sumVersion, live := reduce(results)
		msp.End()
		out = gatherOutcome{count: count, sumVersion: sumVersion, live: live, p: p}
		for _, res := range results {
			if res.err != nil {
				out.firstErr = res.err
				break
			}
		}
		if live == p {
			m.pc.setMerged(gen, mergedCount{count: count, sumVersion: sumVersion})
		}
	} else {
		// The gather outlives its leader's request context: a client
		// that gives up must not fail the waiters it coalesced with.
		// PartialTimeout still bounds every shard fetch.
		gctx := context.WithoutCancel(r.Context())
		key := fmt.Sprintf("%s|g%d", name, m.pc.generation())
		var joined bool
		out, joined = rt.flights.do(key, func() gatherOutcome {
			return rt.gatherMerged(gctx, name, m, homes)
		})
		if joined {
			rt.coalesced.With().Inc()
		}
	}
	elapsed := time.Since(start).Milliseconds()

	if out.live == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("all %d partitions unreachable: %v", p, out.firstErr), 1000)
		return
	}
	if out.fromCache {
		w.Header().Set("X-Cache", "merged")
	}

	if out.live == p && !asEstimate {
		resp := &serveapi.CountResponse{
			ResultMeta: serveapi.ResultMeta{
				Graph:      name,
				Version:    out.sumVersion,
				Partitions: p,
			},
			Butterflies: out.count,
			ElapsedMS:   elapsed,
		}
		if out.fromCache {
			resp.Cache = "merged"
		}
		if debug {
			resp.Trace = spanToAPI(tr.Snapshot())
		}
		rt.writeJSON(w, http.StatusOK, resp)
		return
	}

	scale := float64(p) / float64(out.live)
	resp := &serveapi.EstimateResponse{
		ResultMeta: serveapi.ResultMeta{
			Graph:      name,
			Version:    out.sumVersion,
			Degraded:   out.live < p,
			Partitions: p,
		},
		Strategy:       "partitions",
		Estimate:       float64(out.count) * scale * scale,
		PartitionsLive: out.live,
		ElapsedMS:      elapsed,
	}
	if out.fromCache {
		resp.Cache = "merged"
	}
	if debug {
		resp.Trace = spanToAPI(tr.Snapshot())
	}
	if out.live < p {
		rt.degraded.With().Inc()
		w.Header().Set("X-Degraded", "partitions")
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

// partitionedRegister materializes the requested graph, splits its
// edges by V1-hash into P partition graphs, registers each on its
// home shard with the graph's full dimensions (shared id space — that
// is what makes the partials mergeable without relabeling), and
// answers with the merged logical info, Butterflies computed exactly
// by an immediate scatter-gather — which doubles as an end-to-end
// check that the partition pipeline works before the client sees 201.
func (rt *Router) partitionedRegister(w http.ResponseWriter, r *http.Request, req *serveapi.RegisterRequest) {
	p := req.Partitions
	if p > 256 {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument,
			fmt.Sprintf("partitions=%d exceeds the limit of 256", p), 0)
		return
	}
	if req.Path != "" {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument,
			"path loading is not supported for partitioned registration (the router has no shard filesystem); use dataset or inline edges", 0)
		return
	}
	var g *butterfly.Graph
	var err error
	switch {
	case req.Dataset != "" && req.Scale < 0:
		err = fmt.Errorf("negative scale %d (0 or 1 = full size)", req.Scale)
	case req.Dataset != "":
		g, err = butterfly.GeneratePaperDataset(req.Dataset, max(req.Scale, 1))
	case len(req.Edges) > 0 || req.M > 0 || req.N > 0:
		g, err = butterfly.FromEdges(req.M, req.N, req.Edges)
	default:
		err = fmt.Errorf("exactly one of dataset or m/n/edges must be set")
	}
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, err.Error(), 0)
		return
	}

	ring := rt.currentRing()
	homes := rt.partHomes(ring, req.Name, p)
	if homes == nil {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable, "no shards configured", 1000)
		return
	}
	split := make([][][2]int, p)
	for _, e := range g.Edges() {
		i := partOf(e[0], p)
		split[i] = append(split[i], e)
	}

	type regOut struct {
		sr  *shardResp
		err error
	}
	outs := make([]regOut, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preq := serveapi.RegisterRequest{
				Name:    partName(req.Name, i, p),
				Replace: true, // idempotent re-registration after a failed attempt
				M:       g.NumV1(),
				N:       g.NumV2(),
				Edges:   split[i],
			}
			body, _ := json.Marshal(&preq)
			sr, err := rt.forward(r.Context(), homes[i], http.MethodPost, "/v1/graphs", "application/json", 0, tenantHeaders(r), body)
			if err == nil && sr.status/100 != 2 {
				err = fmt.Errorf("shard %s: status %d: %s", homes[i], sr.status, truncate(sr.body, 200))
			}
			outs[i] = regOut{sr: sr, err: err}
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			// Best-effort cleanup so a retry is not blocked by
			// half-registered partitions.
			for j := 0; j < p; j++ {
				if outs[j].err == nil {
					path := "/v1/graphs/" + url.PathEscape(partName(req.Name, j, p))
					_, _ = rt.forward(r.Context(), homes[j], http.MethodDelete, path, "", 0, nil, nil)
				}
			}
			rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
				fmt.Sprintf("registering partition %d failed: %v", i, o.err), 1000)
			return
		}
	}
	m := rt.ensureMeta(req.Name, p)
	// A re-registration replaces partition content wholesale; anything
	// pinned from the previous incarnation is garbage.
	m.pc.clear()

	results := rt.gatherPartials(r.Context(), req.Name, p, homes, &m.pc)
	count, sumVersion, live := reduce(results)
	info := serveapi.GraphInfo{
		Name:       req.Name,
		Version:    sumVersion,
		NumV1:      g.NumV1(),
		NumV2:      g.NumV2(),
		NumEdges:   g.NumEdges(),
		Partitions: p,
	}
	if live == p {
		info.Butterflies = count
	}
	if info.NumV1 > 0 && info.NumV2 > 0 {
		info.Density = float64(info.NumEdges) / (float64(info.NumV1) * float64(info.NumV2))
	}
	rt.writeJSON(w, http.StatusCreated, &info)
}

// partitionedInfo merges the partition infos into one logical entry;
// Butterflies comes from a fresh scatter-gather, exact when every
// partition answers (the shard-side partial cache makes repeats
// cheap), and omitted (0) otherwise.
func (rt *Router) partitionedInfo(w http.ResponseWriter, r *http.Request, name string, m *graphMeta) {
	p := m.partitions
	ring := rt.currentRing()
	homes := rt.partHomes(ring, name, p)
	type infoOut struct {
		info serveapi.GraphInfo
		err  error
	}
	outs := make([]infoOut, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/v1/graphs/" + url.PathEscape(partName(name, i, p))
			sr, err := rt.forward(r.Context(), homes[i], http.MethodGet, path, "", 0, tenantHeaders(r), nil)
			if err == nil && sr.status != http.StatusOK {
				err = fmt.Errorf("status %d", sr.status)
			}
			var gi serveapi.GraphInfo
			if err == nil {
				err = json.Unmarshal(sr.body, &gi)
			}
			outs[i] = infoOut{info: gi, err: err}
		}(i)
	}
	wg.Wait()

	merged := serveapi.GraphInfo{Name: name, Partitions: p}
	ok := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		ok++
		merged.Version += o.info.Version
		merged.NumEdges += o.info.NumEdges
		if o.info.NumV1 > merged.NumV1 {
			merged.NumV1 = o.info.NumV1
		}
		if o.info.NumV2 > merged.NumV2 {
			merged.NumV2 = o.info.NumV2
		}
	}
	if ok == 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("all %d partitions unreachable", p), 1000)
		return
	}
	if out := rt.gatherMerged(r.Context(), name, m, homes); out.live == p {
		merged.Butterflies = out.count
	}
	if merged.NumV1 > 0 && merged.NumV2 > 0 {
		merged.Density = float64(merged.NumEdges) / (float64(merged.NumV1) * float64(merged.NumV2))
	}
	rt.writeJSON(w, http.StatusOK, &merged)
}

// partitionedDrop deletes every partition graph. Partial failure
// leaves the remaining partitions in place and the meta intact so a
// retry can finish the job.
func (rt *Router) partitionedDrop(w http.ResponseWriter, r *http.Request, name string, m *graphMeta) {
	p := m.partitions
	ring := rt.currentRing()
	homes := rt.partHomes(ring, name, p)
	var errs []string
	for i := 0; i < p; i++ {
		path := "/v1/graphs/" + url.PathEscape(partName(name, i, p))
		sr, err := rt.forward(r.Context(), homes[i], http.MethodDelete, path, "", 0, tenantHeaders(r), nil)
		// 404 is success for a drop retry: the partition is already gone.
		if err == nil && sr.status/100 != 2 && sr.status != http.StatusNotFound {
			err = fmt.Errorf("status %d", sr.status)
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("partition %d on %s: %v", i, homes[i], err))
		}
	}
	if len(errs) > 0 {
		rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
			fmt.Sprintf("drop incomplete: %v", errs), 1000)
		return
	}
	rt.forgetMeta(name)
	w.WriteHeader(http.StatusNoContent)
}

// partitionedMutate splits the mutation batch by the same V1 hash
// that split the graph and applies each piece to its partition.
// Created/Destroyed in the response sum the partition-local deltas
// (butterflies whose both centers share a partition); Count is the
// exact new total from a fresh scatter-gather.
func (rt *Router) partitionedMutate(w http.ResponseWriter, r *http.Request, name string, m *graphMeta, body []byte) {
	var req serveapi.MutateRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument,
				fmt.Sprintf("invalid request body: %v", err), 0)
			return
		}
	}
	p := m.partitions
	ring := rt.currentRing()
	homes := rt.partHomes(ring, name, p)
	ins := make([][][2]int, p)
	dels := make([][][2]int, p)
	for _, e := range req.Inserts {
		i := partOf(e[0], p)
		ins[i] = append(ins[i], e)
	}
	for _, e := range req.Deletes {
		i := partOf(e[0], p)
		dels[i] = append(dels[i], e)
	}

	start := time.Now()
	total := serveapi.MutateResponse{Graph: name}
	for i := 0; i < p; i++ {
		if len(ins[i]) == 0 && len(dels[i]) == 0 {
			continue
		}
		preq := serveapi.MutateRequest{Inserts: ins[i], Deletes: dels[i]}
		pbody, _ := json.Marshal(&preq)
		path := "/v1/graphs/" + url.PathEscape(partName(name, i, p)) + "/mutate"
		sr, err := rt.forward(r.Context(), homes[i], http.MethodPost, path, "application/json", 0, tenantHeaders(r), pbody)
		if err == nil && sr.status/100 != 2 {
			// Relay the shard's own error (bad request, overload, …)
			// verbatim: partial application has already happened for
			// earlier partitions — exactly like a partially applied
			// batch on a single node that fails midway, the applied
			// prefix stays applied.
			relay(w, sr, homes[i])
			return
		}
		if err != nil {
			rt.writeErr(w, http.StatusServiceUnavailable, serveapi.CodeUnavailable,
				fmt.Sprintf("partition %d on %s: %v (earlier partitions already applied; retry is idempotent per edge)", i, homes[i], err), 1000)
			return
		}
		var mr serveapi.MutateResponse
		if json.Unmarshal(sr.body, &mr) == nil {
			total.Inserted += mr.Inserted
			total.Deleted += mr.Deleted
			total.Created += mr.Created
			total.Destroyed += mr.Destroyed
		}
	}

	// The graph changed: start a new cache generation (dropping the
	// merged pin, keeping per-partition pins for delta revalidation)
	// and re-reduce. Routing through the flight group lets counts
	// arriving during the post-mutation gather share it.
	m.pc.invalidate()
	gctx := context.WithoutCancel(r.Context())
	out, _ := rt.flights.do(fmt.Sprintf("%s|g%d", name, m.pc.generation()), func() gatherOutcome {
		return rt.gatherMerged(gctx, name, m, homes)
	})
	total.Version = out.sumVersion
	if out.live == p {
		total.Count = out.count
	}
	var edges int64
	for i := 0; i < p; i++ {
		path := "/v1/graphs/" + url.PathEscape(partName(name, i, p))
		if sr, err := rt.forward(r.Context(), homes[i], http.MethodGet, path, "", 0, tenantHeaders(r), nil); err == nil && sr.status == http.StatusOK {
			var gi serveapi.GraphInfo
			if json.Unmarshal(sr.body, &gi) == nil {
				edges += gi.NumEdges
			}
		}
	}
	total.Edges = edges
	total.ElapsedMS = time.Since(start).Milliseconds()
	rt.writeJSON(w, http.StatusOK, &total)
}

// spanToAPI converts a trace snapshot to the wire shape.
func spanToAPI(n obsv.SpanNode) *serveapi.TraceSpan {
	out := serveapi.TraceSpan{Name: n.Name, StartUS: n.StartUS, DurUS: n.DurUS, Dropped: n.Dropped}
	for _, c := range n.Children {
		out.Children = append(out.Children, *spanToAPI(c))
	}
	return &out
}
