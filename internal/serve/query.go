package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"butterfly"
	"butterfly/internal/obsv"
	"butterfly/serveapi"
)

// badRequestError marks validation failures that should answer 400.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badReqf(format string, args ...any) error {
	return badRequestError{fmt.Sprintf(format, args...)}
}

func parseSide(s string) (butterfly.Side, error) {
	switch s {
	case "", "v1":
		return butterfly.V1, nil
	case "v2":
		return butterfly.V2, nil
	default:
		return 0, badReqf("unknown side %q (want v1|v2)", s)
	}
}

// countOptions validates a CountRequest into CountOptions.
func countOptions(req *serveapi.CountRequest) (butterfly.CountOptions, error) {
	var opts butterfly.CountOptions
	switch req.Algorithm {
	case "", "family":
		opts.Algorithm = butterfly.AlgorithmFamily
	case "wedge-hash":
		opts.Algorithm = butterfly.AlgorithmWedgeHash
	case "vertex-priority":
		opts.Algorithm = butterfly.AlgorithmVertexPriority
	case "sort-aggregate":
		opts.Algorithm = butterfly.AlgorithmSortAggregate
	case "spgemm":
		opts.Algorithm = butterfly.AlgorithmSpGEMM
	default:
		return opts, badReqf("unknown algorithm %q", req.Algorithm)
	}
	opts.Invariant = butterfly.Invariant(req.Invariant)
	if !opts.Invariant.Valid() {
		return opts, badReqf("invariant must be 0-8, got %d", req.Invariant)
	}
	if opts.Algorithm != butterfly.AlgorithmFamily && opts.Invariant != butterfly.InvariantAuto {
		return opts, badReqf("invariant is only meaningful with the family algorithm")
	}
	switch req.Order {
	case "", "natural":
		opts.Order = butterfly.OrderNatural
	case "degree-asc":
		opts.Order = butterfly.OrderDegreeAsc
	case "degree-desc":
		opts.Order = butterfly.OrderDegreeDesc
	default:
		return opts, badReqf("unknown order %q", req.Order)
	}
	if req.BlockSize < 0 {
		return opts, badReqf("block must be ≥ 0, got %d", req.BlockSize)
	}
	opts.BlockSize = req.BlockSize
	opts.Threads = req.Threads
	return opts, nil
}

// Cache keys. A key captures everything that can change the response
// body and nothing else. The exact count is invariant across all
// algorithms, invariants, orders and thread counts — that equivalence
// is the paper's core result and is what makes the shared count key
// sound: a count served from cache is identical to a count computed by
// any family member or baseline, and the response body names none of
// the request's knobs.
const (
	keyCount = "count"
	keyEdges = "edge-supports"
)

func keyVertex(side butterfly.Side, top int) string {
	return fmt.Sprintf("vertex|%v|top=%d", side, top)
}

func keyEstimate(req *serveapi.EstimateRequest) string {
	return fmt.Sprintf("estimate|%s|samples=%d|p=%g|seed=%d|tre=%g|max=%d",
		req.Strategy, req.Samples, req.P, req.Seed, req.TargetRelErr, req.MaxSamples)
}

// keyPeel includes the engine: the subgraph summary is identical
// across engines (confluence), but the response also reports the
// engine and its round count, which legitimately differ.
func keyPeel(mode string, k int64, side butterfly.Side, engine butterfly.PeelEngine) string {
	if mode == "wing" {
		return fmt.Sprintf("peel|wing|k=%d|%v", k, engine)
	}
	return fmt.Sprintf("peel|tip|k=%d|%v|%v", k, side, engine)
}

// parsePeelEngine maps the wire spelling to a PeelEngine.
func parsePeelEngine(s string) (butterfly.PeelEngine, error) {
	switch s {
	case "", "delta":
		return butterfly.PeelDelta, nil
	case "recount":
		return butterfly.PeelRecount, nil
	default:
		return 0, badReqf("unknown engine %q (want delta|recount)", s)
	}
}

// execCount runs an exact count on the snapshot with true cooperative
// cancellation (the ctx is threaded into the core counting loops).
// The kernel span, when present, receives the counting core's named
// sub-stages ("core.order", "core.count", …) as children.
func (s *Server) execCount(ctx context.Context, snap *Snapshot, req *serveapi.CountRequest, ksp *obsv.Span) (*serveapi.CountResponse, error) {
	opts, err := countOptions(req)
	if err != nil {
		return nil, err
	}
	opts.Arena = s.arena
	opts.Stage = ksp.Hook()
	c, err := snap.Graph.CountWithContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &serveapi.CountResponse{
		ResultMeta:  serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Butterflies: c,
	}, nil
}

// execVertexCounts computes per-vertex butterfly counts and keeps the
// top-K. Runs under runAbandon (no checkpoints inside the vector
// kernel yet).
func (s *Server) execVertexCounts(ctx context.Context, sl *slot, snap *Snapshot, side butterfly.Side, top int) (*serveapi.VertexCountsResponse, error) {
	counts, err := runAbandon(ctx, sl, func() ([]int64, error) {
		return snap.Graph.VertexButterflies(side)
	})
	if err != nil {
		return nil, err
	}
	var total int64
	idx := make([]int, len(counts))
	for i, c := range counts {
		total += c
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if top > 0 && top < len(idx) {
		idx = idx[:top]
	}
	vs := make([]serveapi.VertexCount, len(idx))
	for i, v := range idx {
		vs[i] = serveapi.VertexCount{Vertex: v, Count: counts[v]}
	}
	return &serveapi.VertexCountsResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Side:       strings.ToLower(side.String()), Total: total, Vertices: vs,
	}, nil
}

// execEdgeSupports computes per-edge butterfly supports, top-K by
// support.
func (s *Server) execEdgeSupports(ctx context.Context, sl *slot, snap *Snapshot, top int) (*serveapi.EdgeSupportsResponse, error) {
	supports, err := runAbandon(ctx, sl, func() ([]butterfly.EdgeCount, error) {
		return snap.Graph.EdgeSupports(), nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, e := range supports {
		total += e.Count
	}
	sort.Slice(supports, func(a, b int) bool {
		if supports[a].Count != supports[b].Count {
			return supports[a].Count > supports[b].Count
		}
		if supports[a].U != supports[b].U {
			return supports[a].U < supports[b].U
		}
		return supports[a].V < supports[b].V
	})
	if top > 0 && top < len(supports) {
		supports = supports[:top]
	}
	es := make([]serveapi.EdgeSupport, len(supports))
	for i, e := range supports {
		es[i] = serveapi.EdgeSupport{U: e.U, V: e.V, Count: e.Count}
	}
	return &serveapi.EdgeSupportsResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Total:      total, Edges: es,
	}, nil
}

// execEstimate runs a sampling estimator (deterministic given the
// seed, hence cacheable). Samples == 0 with a sampling strategy means
// adaptive sizing: draws accumulate until the 95% CI half-width is
// below the target relative error or MaxSamples is hit.
func (s *Server) execEstimate(ctx context.Context, sl *slot, snap *Snapshot, req *serveapi.EstimateRequest) (*serveapi.EstimateResponse, error) {
	opts := butterfly.EstimateOptions{
		Samples:      req.Samples,
		P:            req.P,
		Seed:         req.Seed,
		TargetRelErr: req.TargetRelErr,
		MaxSamples:   req.MaxSamples,
	}
	strategy := req.Strategy
	if strategy == "" || strategy == "auto" {
		// Edge sampling is usually the lowest-variance choice on skewed
		// graphs, and every sample is O(deg) — a safe default.
		strategy = "edges"
	}
	switch strategy {
	case "vertices":
		opts.Strategy = butterfly.SampleVertices
	case "edges":
		opts.Strategy = butterfly.SampleEdges
	case "sparsify":
		opts.Strategy = butterfly.SampleSparsify
	default:
		return nil, badReqf("unknown strategy %q (want auto|vertices|edges|sparsify)", req.Strategy)
	}
	if req.Samples < 0 {
		return nil, badReqf("samples must be ≥ 0, got %d", req.Samples)
	}
	if req.TargetRelErr < 0 {
		return nil, badReqf("target_rel_err must be ≥ 0, got %g", req.TargetRelErr)
	}
	if req.MaxSamples < 0 {
		return nil, badReqf("max_samples must be ≥ 0, got %d", req.MaxSamples)
	}
	res, err := runAbandon(ctx, sl, func() (butterfly.EstimateResult, error) {
		res, err := snap.Graph.EstimateWithCI(opts)
		if err != nil {
			return res, badRequestError{err.Error()}
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	s.obs.estimates.With("sample").Inc()
	return &serveapi.EstimateResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Strategy:   strategy,
		Estimate:   res.Estimate,
		StdErr:     res.StdErr,
		CI95:       res.CI95,
		Samples:    res.Samples,
	}, nil
}

// degradedEstimate is the admission limiter's degrade-to-estimate
// fallback (?degrade=estimate on /count): a small fixed-budget edge
// sample, deliberately bounded so it stays cheap enough to run outside
// an execution slot. The seed is fixed — under sustained overload
// repeated degrades return a stable answer instead of jittering.
func (s *Server) degradedEstimate(snap *Snapshot) (any, error) {
	start := time.Now()
	res, err := snap.Graph.EstimateWithCI(butterfly.EstimateOptions{
		Strategy: butterfly.SampleEdges,
		Samples:  degradeSamples,
		Seed:     1,
	})
	if err != nil {
		return nil, err
	}
	return &serveapi.EstimateResponse{
		ResultMeta: serveapi.ResultMeta{
			Graph: snap.Name, Version: snap.Version,
			Cache: "bypass", Degraded: true,
		},
		Strategy:  "edges",
		Estimate:  res.Estimate,
		StdErr:    res.StdErr,
		CI95:      res.CI95,
		Samples:   res.Samples,
		ElapsedMS: time.Since(start).Milliseconds(),
	}, nil
}

// degradeSamples is the fixed edge-sample budget of the degrade path.
const degradeSamples = 256

// execPeel runs a k-tip or k-wing peel and summarizes the surviving
// subgraph. The kernel span, when present, receives the peeling
// engine's sub-stages ("peel.seed", "peel.round[i]") as children.
func (s *Server) execPeel(ctx context.Context, sl *slot, snap *Snapshot, req *serveapi.PeelRequest, ksp *obsv.Span) (*serveapi.PeelResponse, error) {
	if req.K < 0 {
		return nil, badReqf("k must be ≥ 0, got %d", req.K)
	}
	side, err := parseSide(req.Side)
	if err != nil {
		return nil, err
	}
	var mode string
	switch req.Mode {
	case "tip":
		mode = "tip"
	case "wing":
		mode = "wing"
	default:
		return nil, badReqf("unknown mode %q (want tip|wing)", req.Mode)
	}
	engine, err := parsePeelEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	opts := butterfly.PeelOptions{Engine: engine, Threads: req.Threads, Stage: ksp.Hook()}
	type peeled struct {
		sub   *butterfly.Graph
		stats butterfly.PeelStats
	}
	r, err := runAbandon(ctx, sl, func() (peeled, error) {
		if mode == "wing" {
			sub, st, err := snap.Graph.KWingWith(req.K, opts)
			return peeled{sub, st}, err
		}
		sub, st, err := snap.Graph.KTipWith(req.K, side, opts)
		return peeled{sub, st}, err
	})
	if err != nil {
		return nil, err
	}
	return &serveapi.PeelResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Mode:       mode, K: req.K,
		Engine: engine.String(), Rounds: r.stats.Rounds,
		EdgesRemaining: r.sub.NumEdges(), Butterflies: r.sub.Count(),
	}, nil
}

// slot is a claimed execution slot of the admission limiter whose
// release can be handed over to a background goroutine when a
// computation is abandoned on deadline. States: held (by the request
// goroutine) → transferred (to the abandoned computation) → released.
// Exactly one transition releases the limiter.
type slot struct {
	lim   *limiter
	state atomic.Int32
}

const (
	slotHeld int32 = iota
	slotTransferred
	slotReleased
)

// release frees the slot if the request goroutine still owns it; the
// handler defers it so every early-exit path is covered.
func (sl *slot) release() {
	if sl != nil && sl.state.CompareAndSwap(slotHeld, slotReleased) {
		sl.lim.release()
	}
}

// transfer hands ownership to a background goroutine: the handler's
// deferred release becomes a no-op and releaseOwned frees the slot
// when the computation actually finishes. This keeps the limiter's
// accounting honest — an abandoned count still occupies CPU, so it
// must keep occupying an execution slot until it is done.
func (sl *slot) transfer() { sl.state.CompareAndSwap(slotHeld, slotTransferred) }

// releaseOwned frees the slot from the computation goroutine,
// whichever side currently owns it.
func (sl *slot) releaseOwned() {
	if sl.state.CompareAndSwap(slotTransferred, slotReleased) ||
		sl.state.CompareAndSwap(slotHeld, slotReleased) {
		sl.lim.release()
	}
}

// runAbandon runs f in a helper goroutine and returns its result, or
// returns promptly with ctx.Err() on cancellation. On cancellation
// the goroutine finishes in the background, discards its result, and
// releases the execution slot only when it is truly done — used for
// the query kernels that do not yet have cancellation checkpoints of
// their own. With a non-cancellable ctx, f runs inline and slot
// handling is left entirely to the caller's defer.
func runAbandon[T any](ctx context.Context, sl *slot, f func() (T, error)) (T, error) {
	if ctx.Done() == nil {
		return f()
	}
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f()
		sl.releaseOwned()
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		sl.transfer()
		return zero, ctx.Err()
	}
}
