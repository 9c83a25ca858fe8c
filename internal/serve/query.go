package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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

// Cache keys. A key captures everything that can change the response
// body and nothing else. A count request carries no kernel knobs, so
// every count of a graph version shares one key; the exact count is
// invariant across family members, orders and thread counts anyway —
// the paper's core result.
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

// execCount runs an exact count on the snapshot: the automatically
// selected family member, sequentially, on the server's arena. The
// kernel span, when present, receives the counting core's named
// sub-stages ("core.relayout", "core.count") as children.
func (s *Server) execCount(ctx context.Context, snap *Snapshot, ksp *obsv.Span) (*serveapi.CountResponse, error) {
	c, err := snap.Graph.CountWithContext(ctx, butterfly.CountOptions{Arena: s.arena, Stage: ksp.Hook()})
	if err != nil {
		return nil, err
	}
	return &serveapi.CountResponse{
		ResultMeta:  serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Butterflies: c,
	}, nil
}

// execVertexCounts computes per-vertex butterfly counts and keeps the
// top-K.
func (s *Server) execVertexCounts(ctx context.Context, snap *Snapshot, side butterfly.Side, top int) (*serveapi.VertexCountsResponse, error) {
	counts, err := snap.Graph.VertexButterfliesContext(ctx, side)
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
func (s *Server) execEdgeSupports(ctx context.Context, snap *Snapshot, top int) (*serveapi.EdgeSupportsResponse, error) {
	supports, err := snap.Graph.EdgeSupportsContext(ctx)
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
func (s *Server) execEstimate(ctx context.Context, snap *Snapshot, req *serveapi.EstimateRequest) (*serveapi.EstimateResponse, error) {
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
	res, err := snap.Graph.EstimateWithCIContext(ctx, opts)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return nil, err
	}
	if err != nil {
		return nil, badRequestError{err.Error()}
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
func (s *Server) execPeel(ctx context.Context, snap *Snapshot, req *serveapi.PeelRequest, ksp *obsv.Span) (*serveapi.PeelResponse, error) {
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
	// Threads stays 0: the peeling engines' default, one worker per CPU.
	opts := butterfly.PeelOptions{Engine: engine, Stage: ksp.Hook()}
	var (
		sub *butterfly.Graph
		st  butterfly.PeelStats
	)
	if mode == "wing" {
		sub, st, err = snap.Graph.KWingWithContext(ctx, req.K, opts)
	} else {
		sub, st, err = snap.Graph.KTipWithContext(ctx, req.K, side, opts)
	}
	if err != nil {
		return nil, err
	}
	c, err := sub.CountWithContext(ctx, butterfly.CountOptions{Arena: s.arena})
	if err != nil {
		return nil, err
	}
	return &serveapi.PeelResponse{
		ResultMeta: serveapi.ResultMeta{Graph: snap.Name, Version: snap.Version},
		Mode:       mode, K: req.K,
		Engine: engine.String(), Rounds: st.Rounds,
		EdgesRemaining: sub.NumEdges(), Butterflies: c,
	}, nil
}
