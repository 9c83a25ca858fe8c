package serveapi

import (
	"encoding/json"
	"reflect"
	"testing"
)

// wireCase pins one type's JSON shape: marshaling value must produce
// exactly want (this freezes field names, order and omitempty
// behavior), and unmarshaling want must reproduce value (round trip).
type wireCase struct {
	name  string
	value any // pointer to a populated struct
	want  string
}

// TestWireFormat is the compatibility contract of the HTTP API: if a
// rename or retag changes any byte of these golden strings, this test
// fails and the change is flagged as a wire-format break.
func TestWireFormat(t *testing.T) {
	cases := []wireCase{
		{
			"RegisterRequest",
			&RegisterRequest{Name: "g", Replace: true, Dataset: "github", Scale: 10,
				Path: "/d/g.tsv", Format: "konect", M: 2, N: 3, Edges: [][2]int{{0, 1}}},
			`{"name":"g","replace":true,"dataset":"github","scale":10,` +
				`"path":"/d/g.tsv","format":"konect","m":2,"n":3,"edges":[[0,1]]}`,
		},
		{
			"RegisterRequest zero omits optionals",
			&RegisterRequest{Name: "g"},
			`{"name":"g"}`,
		},
		{
			"GraphInfo",
			&GraphInfo{Name: "g", Version: 3, NumV1: 2, NumV2: 4, NumEdges: 8,
				Butterflies: 6, Density: 0.5},
			`{"name":"g","version":3,"v1":2,"v2":4,"edges":8,"butterflies":6,"density":0.5}`,
		},
		{
			"GraphList",
			&GraphList{Graphs: []GraphInfo{{Name: "g", Version: 1}}},
			`{"graphs":[{"name":"g","version":1,"v1":0,"v2":0,"edges":0,"butterflies":0,"density":0}]}`,
		},
		{
			"CountRequest",
			&CountRequest{TimeoutMillis: 5000},
			`{"timeout_ms":5000}`,
		},
		{
			"CountRequest zero is empty",
			&CountRequest{},
			`{}`,
		},
		{
			// The ResultMeta embedding keeps graph/version leading and
			// omits cache/degraded/partitions when unset, so the plain
			// exact-count body is byte-identical to the PR 5 golden.
			"CountResponse",
			&CountResponse{ResultMeta: ResultMeta{Graph: "g", Version: 2}, Butterflies: 36, ElapsedMS: 5},
			`{"graph":"g","version":2,"butterflies":36,"elapsed_ms":5}`,
		},
		{
			// The full metadata block: a router answer served from its
			// pinned merged reduction.
			"CountResponse merged meta",
			&CountResponse{ResultMeta: ResultMeta{Graph: "g", Version: 6, Cache: "merged", Partitions: 4},
				Butterflies: 36, ElapsedMS: 1},
			`{"graph":"g","version":6,"cache":"merged","partitions":4,` +
				`"butterflies":36,"elapsed_ms":1}`,
		},
		{
			// Tenant/priority ride any /v1 request that passes admission.
			"CountRequest with tenant",
			&CountRequest{Tenant: "dashboards", Priority: "interactive"},
			`{"tenant":"dashboards","priority":"interactive"}`,
		},
		{
			"VertexCountsRequest",
			&VertexCountsRequest{Side: "v2", Top: 10, TimeoutMillis: 100},
			`{"side":"v2","top":10,"timeout_ms":100}`,
		},
		{
			"VertexCountsResponse",
			&VertexCountsResponse{ResultMeta: ResultMeta{Graph: "g", Version: 1}, Side: "v1", Total: 72,
				Vertices: []VertexCount{{Vertex: 3, Count: 9}}, ElapsedMS: 1},
			`{"graph":"g","version":1,"side":"v1","total":72,` +
				`"vertices":[{"vertex":3,"count":9}],"elapsed_ms":1}`,
		},
		{
			"EdgeSupportsRequest",
			&EdgeSupportsRequest{Top: 5, TimeoutMillis: 100},
			`{"top":5,"timeout_ms":100}`,
		},
		{
			"EdgeSupportsResponse",
			&EdgeSupportsResponse{ResultMeta: ResultMeta{Graph: "g", Version: 1}, Total: 144,
				Edges: []EdgeSupport{{U: 1, V: 2, Count: 4}}, ElapsedMS: 1},
			`{"graph":"g","version":1,"total":144,` +
				`"edges":[{"u":1,"v":2,"count":4}],"elapsed_ms":1}`,
		},
		{
			"EstimateRequest",
			&EstimateRequest{Strategy: "sparsify", Samples: 100, P: 0.25, Seed: 7, TimeoutMillis: 100},
			`{"strategy":"sparsify","samples":100,"p":0.25,"seed":7,"timeout_ms":100}`,
		},
		{
			"EstimateRequest adaptive knobs",
			&EstimateRequest{Strategy: "edges", Seed: 7, TargetRelErr: 0.02, MaxSamples: 5000},
			`{"strategy":"edges","seed":7,"target_rel_err":0.02,"max_samples":5000}`,
		},
		{
			"EstimateResponse",
			&EstimateResponse{ResultMeta: ResultMeta{Graph: "g", Version: 1}, Estimate: 35.5, ElapsedMS: 2},
			`{"graph":"g","version":1,"estimate":35.5,"elapsed_ms":2}`,
		},
		{
			// A sampling estimate on a registered graph carries the
			// estimator name, error bars and the draws taken.
			"EstimateResponse sampled",
			&EstimateResponse{ResultMeta: ResultMeta{Graph: "g", Version: 2}, Strategy: "edges", Estimate: 36,
				StdErr: 1.5, CI95: 2.94, Samples: 64, ElapsedMS: 1},
			`{"graph":"g","version":2,"strategy":"edges","estimate":36,` +
				`"stderr":1.5,"ci95":2.94,"samples":64,"elapsed_ms":1}`,
		},
		{
			// A reservoir answer on a loading graph: version 0, stream
			// bookkeeping instead of a sample count.
			"EstimateResponse loading",
			&EstimateResponse{ResultMeta: ResultMeta{Graph: "g"}, State: "loading", Strategy: "reservoir",
				Estimate: 120.5, StdErr: 4, CI95: 7.84, EdgesSeen: 900,
				ReservoirSize: 512, ElapsedMS: 1},
			`{"graph":"g","version":0,"state":"loading","strategy":"reservoir",` +
				`"estimate":120.5,"stderr":4,"ci95":7.84,"edges_seen":900,` +
				`"reservoir_size":512,"elapsed_ms":1}`,
		},
		{
			// The limiter's degrade-to-estimate path marks the metadata
			// block; degraded answers bypass the result cache, which the
			// body records.
			"EstimateResponse degraded",
			&EstimateResponse{ResultMeta: ResultMeta{Graph: "g", Version: 2, Cache: "bypass", Degraded: true},
				Strategy: "edges", Estimate: 36, Samples: 256, ElapsedMS: 1},
			`{"graph":"g","version":2,"cache":"bypass","degraded":true,` +
				`"strategy":"edges","estimate":36,"samples":256,"elapsed_ms":1}`,
		},
		{
			// A router reduction missing partitions: live/total plus the
			// shared degraded marker.
			"EstimateResponse partitions degraded",
			&EstimateResponse{ResultMeta: ResultMeta{Graph: "g", Version: 9, Degraded: true, Partitions: 4},
				Strategy: "partitions", Estimate: 144, PartitionsLive: 2, ElapsedMS: 1},
			`{"graph":"g","version":9,"degraded":true,"partitions":4,` +
				`"strategy":"partitions","estimate":144,"partitions_live":2,"elapsed_ms":1}`,
		},
		{
			"IngestRequest",
			&IngestRequest{Name: "g", M: 100, N: 200, Reservoir: 4096, Seed: 7, Replace: true},
			`{"name":"g","m":100,"n":200,"reservoir":4096,"seed":7,"replace":true}`,
		},
		{
			"IngestRequest zero omits optionals",
			&IngestRequest{Name: "g", M: 2, N: 3},
			`{"name":"g","m":2,"n":3}`,
		},
		{
			"IngestResponse",
			&IngestResponse{Graph: "g", State: "loading", M: 100, N: 200,
				EdgesSeen: 5000, Accepted: 1000, ReservoirSize: 4096, ReservoirCap: 4096,
				Estimate: 120.5, StdErr: 4, CI95: 7.84, ElapsedMS: 3},
			`{"graph":"g","state":"loading","m":100,"n":200,"edges_seen":5000,` +
				`"accepted":1000,"reservoir_size":4096,"reservoir_cap":4096,` +
				`"estimate":120.5,"stderr":4,"ci95":7.84,"elapsed_ms":3}`,
		},
		{
			// While the stream fits the reservoir the estimate is exact
			// and the error-bar fields are omitted.
			"IngestResponse exact regime",
			&IngestResponse{Graph: "g", State: "loading", M: 4, N: 4,
				EdgesSeen: 16, ReservoirSize: 16, ReservoirCap: 64, Estimate: 36,
				Exact: true, ElapsedMS: 1},
			`{"graph":"g","state":"loading","m":4,"n":4,"edges_seen":16,` +
				`"reservoir_size":16,"reservoir_cap":64,"estimate":36,` +
				`"exact":true,"elapsed_ms":1}`,
		},
		{
			// A loading graph in listings: state "loading", version 0.
			"GraphInfo loading",
			&GraphInfo{Name: "g", State: "loading", NumV1: 2, NumV2: 4, NumEdges: 8,
				Butterflies: 6, Density: 0.5},
			`{"name":"g","version":0,"state":"loading","v1":2,"v2":4,"edges":8,` +
				`"butterflies":6,"density":0.5}`,
		},
		{
			// Mode accepts "tip" or "wing"; both spellings are pinned,
			// as are both engine spellings.
			"PeelRequest tip",
			&PeelRequest{Mode: "tip", K: 8, Side: "v2", Engine: "recount", TimeoutMillis: 100},
			`{"mode":"tip","k":8,"side":"v2","engine":"recount","timeout_ms":100}`,
		},
		{
			// Engine omits when empty (server defaults to delta).
			"PeelRequest wing",
			&PeelRequest{Mode: "wing", K: 2},
			`{"mode":"wing","k":2}`,
		},
		{
			"PeelResponse",
			&PeelResponse{ResultMeta: ResultMeta{Graph: "g", Version: 1}, Mode: "wing", K: 2,
				Engine: "delta", Rounds: 7,
				EdgesRemaining: 12, Butterflies: 9, ElapsedMS: 3},
			`{"graph":"g","version":1,"mode":"wing","k":2,` +
				`"engine":"delta","rounds":7,` +
				`"edges_remaining":12,"butterflies":9,"elapsed_ms":3}`,
		},
		{
			"MutateRequest",
			&MutateRequest{Inserts: [][2]int{{0, 1}}, Deletes: [][2]int{{2, 3}}},
			`{"inserts":[[0,1]],"deletes":[[2,3]]}`,
		},
		{
			"MutateResponse",
			&MutateResponse{Graph: "g", Version: 4, Inserted: 1, Deleted: 2,
				Created: 3, Destroyed: 4, Count: 30, Edges: 15, ElapsedMS: 6},
			`{"graph":"g","version":4,"inserted":1,"deleted":2,"created":3,` +
				`"destroyed":4,"count":30,"edges":15,"elapsed_ms":6}`,
		},
		{
			"CheckpointResponse",
			&CheckpointResponse{Graphs: 2, WALBytesBefore: 4096, WALBytesAfter: 0, ElapsedMS: 12},
			`{"graphs":2,"wal_bytes_before":4096,"wal_bytes_after":0,"elapsed_ms":12}`,
		},
		{
			"Health",
			&Health{Status: "draining", Graphs: 2, InFlight: 1, Queued: 3},
			`{"status":"draining","graphs":2,"in_flight":1,"queued":3}`,
		},
		{
			"Error",
			&Error{Status: 404, Message: "graph not found"},
			`{"status":404,"error":"graph not found"}`,
		},
		{
			// The /v1 envelope: code + message, optionals omitted.
			"ErrorEnvelope basic",
			&ErrorEnvelope{Error: ErrorDetail{Code: CodeNotFound, Message: "graph not found"}},
			`{"error":{"code":"not_found","message":"graph not found"}}`,
		},
		{
			// 429 carries a retry hint.
			"ErrorEnvelope overloaded",
			&ErrorEnvelope{Error: ErrorDetail{Code: CodeOverloaded, Message: "server overloaded", RetryAfterMS: 1000}},
			`{"error":{"code":"overloaded","message":"server overloaded","retry_after_ms":1000}}`,
		},
		{
			// Tenant bucket empty: same envelope, quota-specific code,
			// retry hint derived from the bucket refill.
			"ErrorEnvelope quota exhausted",
			&ErrorEnvelope{Error: ErrorDetail{Code: CodeQuotaExhausted,
				Message: `tenant "crawler" quota exhausted`, RetryAfterMS: 250}},
			`{"error":{"code":"quota_exhausted","message":"tenant \"crawler\" quota exhausted","retry_after_ms":250}}`,
		},
		{
			// Exact queries against a still-loading graph.
			"ErrorEnvelope loading",
			&ErrorEnvelope{Error: ErrorDetail{Code: CodeLoading, Message: `graph "g" is still loading; use the estimate endpoint or seal the ingest`}},
			`{"error":{"code":"loading","message":"graph \"g\" is still loading; use the estimate endpoint or seal the ingest"}}`,
		},
		{
			// Ingest operations against a name with no open ingest.
			"ErrorEnvelope not ingesting",
			&ErrorEnvelope{Error: ErrorDetail{Code: CodeNotIngesting, Message: `graph "g" has no open ingest`}},
			`{"error":{"code":"not_ingesting","message":"graph \"g\" has no open ingest"}}`,
		},
		{
			// Debug errors carry the span tree.
			"ErrorEnvelope with trace",
			&ErrorEnvelope{Error: ErrorDetail{Code: CodeDeadlineExceeded, Message: "deadline exceeded",
				Trace: &TraceSpan{Name: "request", DurUS: 42,
					Children: []TraceSpan{{Name: "registry", StartUS: 1, DurUS: 2}}}}},
			`{"error":{"code":"deadline_exceeded","message":"deadline exceeded",` +
				`"trace":{"name":"request","start_us":0,"dur_us":42,` +
				`"children":[{"name":"registry","start_us":1,"dur_us":2}]}}}`,
		},
		{
			"TraceSpan",
			&TraceSpan{Name: "kernel", StartUS: 10, DurUS: 100, Dropped: 2,
				Children: []TraceSpan{{Name: "core.count", StartUS: 12, DurUS: 90}}},
			`{"name":"kernel","start_us":10,"dur_us":100,"dropped":2,` +
				`"children":[{"name":"core.count","start_us":12,"dur_us":90}]}`,
		},
		{
			// Responses carry the trace only under ?debug=true; the
			// plain shape stays byte-identical (pinned above), and the
			// debug shape appends the trace last.
			"CountResponse with trace",
			&CountResponse{ResultMeta: ResultMeta{Graph: "g", Version: 2}, Butterflies: 36, ElapsedMS: 5,
				Trace: &TraceSpan{Name: "request", DurUS: 5000}},
			`{"graph":"g","version":2,"butterflies":36,"elapsed_ms":5,` +
				`"trace":{"name":"request","start_us":0,"dur_us":5000}}`,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.value)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if string(got) != tc.want {
				t.Fatalf("wire format changed:\n got %s\nwant %s", got, tc.want)
			}
			back := reflect.New(reflect.TypeOf(tc.value).Elem()).Interface()
			if err := json.Unmarshal([]byte(tc.want), back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(back, tc.value) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, tc.value)
			}
		})
	}
}

// TestWireUnknownFieldsIgnored: clients and servers of different
// versions must coexist, so decoding tolerates unknown fields.
func TestWireUnknownFieldsIgnored(t *testing.T) {
	var req CountRequest
	if err := json.Unmarshal([]byte(`{"timeout_ms":3,"some_future_knob":true}`), &req); err != nil {
		t.Fatalf("unknown field rejected: %v", err)
	}
	if req.TimeoutMillis != 3 {
		t.Fatalf("known field lost: %+v", req)
	}
}
