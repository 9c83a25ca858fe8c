package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"butterfly"
	"butterfly/serveapi"
)

func TestMutateEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	registerK44(t, c)

	// Deleting one edge of K_{4,4} destroys the C(3,1)*C(3,1)=9
	// butterflies through it.
	resp, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{Deletes: [][2]int{{0, 0}}})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if resp.Version != 2 || resp.Deleted != 1 || resp.Destroyed != 9 || resp.Count != 27 || resp.Edges != 15 {
		t.Fatalf("delete batch = %+v, want v2 deleted=1 destroyed=9 count=27 edges=15", resp)
	}

	// Re-inserting restores the count; duplicate insert is a no-op.
	resp, err = c.Mutate(ctx, "k44", serveapi.MutateRequest{Inserts: [][2]int{{0, 0}, {0, 1}}})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if resp.Version != 3 || resp.Inserted != 1 || resp.Created != 9 || resp.Count != 36 {
		t.Fatalf("insert batch = %+v, want v3 inserted=1 created=9 count=36", resp)
	}

	// The new version is what counting sees.
	count, err := c.Count(ctx, "k44", serveapi.CountRequest{})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if count.Version != 3 || count.Butterflies != 36 {
		t.Fatalf("count after mutations = %+v, want 36 @ v3", count)
	}

	// Out-of-range endpoints fail the whole batch up front.
	if _, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{
		Inserts: [][2]int{{1, 1}},
		Deletes: [][2]int{{99, 0}},
	}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	info, err := c.GraphInfo(ctx, "k44")
	if err != nil || info.Version != 3 {
		t.Fatalf("failed batch bumped version: %+v, %v", info, err)
	}
}

// TestNoopBatchKeepsVersion: a batch of only duplicate inserts and
// absent-edge deletes creates no version, so the result cache stays
// warm for the next count.
func TestNoopBatchKeepsVersion(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	base := urlOf(t, c)
	registerK44(t, c)
	if _, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{Deletes: [][2]int{{0, 0}}}); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if r, _ := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`); r.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first count X-Cache = %q, want miss", r.Header.Get("X-Cache"))
	}
	before, _ := s.Registry().Get("k44")

	resp, err := c.Mutate(ctx, "k44", serveapi.MutateRequest{
		Inserts: [][2]int{{1, 1}, {2, 3}}, // both present
		Deletes: [][2]int{{0, 0}},         // already gone
	})
	if err != nil {
		t.Fatalf("no-op mutate: %v", err)
	}
	want := serveapi.MutateResponse{Graph: "k44", Version: 2, Count: 27, Edges: 15, ElapsedMS: resp.ElapsedMS}
	if resp != want {
		t.Fatalf("no-op batch = %+v, want %+v", resp, want)
	}
	if after, _ := s.Registry().Get("k44"); after != before {
		t.Fatal("no-op batch published a new snapshot")
	}
	r, body := rawDo(t, "POST", base+"/v1/graphs/k44/count", `{}`)
	if got := r.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("count after no-op batch X-Cache = %q, want hit (%s)", got, body)
	}
}

// TestSnapshotIsolation pins the copy-on-write contract at the registry
// level: a reader holding a Snapshot keeps seeing that version's edge
// set and count even while mutation batches publish newer versions.
func TestSnapshotIsolation(t *testing.T) {
	g, err := butterfly.FromEdges(4, 4, completeEdges(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Register("g", g, false); err != nil {
		t.Fatal(err)
	}

	old, err := reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}

	// A mutation batch lands while the reader still holds old.
	if _, err := reg.Mutate("g", nil, [][2]int{{0, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}

	// The old snapshot is untouched: same version, same edges, and a
	// fresh exact recount over its graph still gives the old answer.
	if old.Version != 1 || old.Count != 36 || old.Graph.NumEdges() != 16 {
		t.Fatalf("old snapshot changed under mutation: %+v", old)
	}
	if n := old.Graph.Count(); n != 36 {
		t.Fatalf("recount on old snapshot = %d, want 36", n)
	}

	// New readers see the new version.
	cur, err := reg.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 || cur.Graph.NumEdges() != 14 {
		t.Fatalf("current snapshot = %+v, want v2 with 14 edges", cur)
	}
	if n := cur.Graph.Count(); n != cur.Count {
		t.Fatalf("recount on new snapshot = %d, want %d", n, cur.Count)
	}
}

// TestConcurrentQueriesAndMutations hammers one graph with parallel
// readers and mutators through the HTTP API and cross-checks every
// answer: each CountResponse must report the count the dynamic counter
// published for that exact version. Run under -race this also shakes
// out data races between snapshot publication, the result cache and
// the admission path.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	// Pin admission capacity above the worker count: the default
	// (GOMAXPROCS in-flight, 4x queued) can shed on single-CPU
	// machines, and this test asserts correctness under concurrency,
	// not shedding behavior (TestLoadShedding429 covers that).
	_, c := newTestServer(t, Config{MaxInFlight: 8, MaxQueue: 32})
	ctx := context.Background()

	const m, n = 24, 24
	rng := rand.New(rand.NewSource(7))
	var edges [][2]int
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	info, err := c.Register(ctx, serveapi.RegisterRequest{Name: "h", M: m, N: n, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}

	// byVersion records the authoritative count for every published
	// version, written by whoever learns it first (register response,
	// mutate responses, count responses). A version must never be
	// observed with two different counts.
	var (
		mu        sync.Mutex
		byVersion = map[uint64]int64{}
	)
	record := func(version uint64, count int64) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := byVersion[version]; ok && prev != count {
			t.Errorf("version %d seen with counts %d and %d", version, prev, count)
			return
		}
		byVersion[version] = count
	}
	record(info.Version, info.Butterflies)

	iters := 40
	if testing.Short() {
		iters = 10
	}

	var wg sync.WaitGroup
	// Mutators: random insert/delete batches.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				req := serveapi.MutateRequest{
					Inserts: [][2]int{{rng.Intn(m), rng.Intn(n)}, {rng.Intn(m), rng.Intn(n)}},
					Deletes: [][2]int{{rng.Intn(m), rng.Intn(n)}},
				}
				resp, err := c.Mutate(ctx, "h", req)
				if err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
				record(resp.Version, resp.Count)
			}
		}(int64(100 + w))
	}
	// Readers: exact counts plus vertex/edge traffic under load.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					resp, err := c.Count(ctx, "h", serveapi.CountRequest{})
					if err != nil {
						t.Errorf("count: %v", err)
						return
					}
					record(resp.Version, resp.Butterflies)
				case 2:
					if _, err := c.VertexCounts(ctx, "h", serveapi.VertexCountsRequest{Side: "v1", Top: 5}); err != nil {
						t.Errorf("vertex-counts: %v", err)
						return
					}
				case 3:
					if _, err := c.EdgeSupports(ctx, "h", serveapi.EdgeSupportsRequest{Top: 5}); err != nil {
						t.Errorf("edge-supports: %v", err)
						return
					}
				}
			}
		}(int64(200 + w))
	}
	wg.Wait()

	// Final cross-check: a from-scratch exact count over the final
	// snapshot must agree with the incrementally maintained count.
	final, err := c.GraphInfo(ctx, "h")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Count(ctx, "h", serveapi.CountRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != final.Version || resp.Butterflies != final.Butterflies {
		t.Fatalf("final recount %d @ v%d disagrees with dynamic count %d @ v%d",
			resp.Butterflies, resp.Version, final.Butterflies, final.Version)
	}
}
