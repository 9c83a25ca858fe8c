package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"butterfly/internal/graph"
)

func cancelTestGraph(tb testing.TB) *graph.Bipartite {
	tb.Helper()
	// Dense-ish random graph large enough that a full count comfortably
	// outlasts an already-cancelled context check, small enough for CI.
	b := graph.NewBuilder(600, 600)
	seed := uint64(0x9e3779b97f4a7c15)
	for u := 0; u < 600; u++ {
		for v := 0; v < 600; v++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			if seed>>33&0x7 == 0 { // p = 1/8
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestCountContextMatchesCountWith(t *testing.T) {
	g := cancelTestGraph(t)
	want := CountWith(g, Options{})
	for _, opts := range []Options{
		{},
		{Threads: 4},
		{BlockSize: 8},
		{Arena: NewArena()},
	} {
		got, err := CountContext(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("CountContext(%+v): %v", opts, err)
		}
		if got != want {
			t.Fatalf("CountContext(%+v) = %d, want %d", opts, got, want)
		}
	}
}

func TestCountContextCancelled(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{{}, {Threads: 4}, {BlockSize: 8}} {
		if _, err := CountContext(ctx, g, opts); err != context.Canceled {
			t.Fatalf("CountContext(cancelled, %+v) err = %v, want context.Canceled", opts, err)
		}
	}
}

func TestCountContextDeadline(t *testing.T) {
	g := cancelTestGraph(t)
	// A deadline that expires mid-count: loop until the count is
	// actually interrupted (on a fast machine the first try may finish
	// before the timer fires — that run still validates the count).
	want := CountWith(g, Options{})
	for _, threads := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		c, err := CountContext(ctx, g, Options{Threads: threads})
		cancel()
		if err == nil {
			if c != want {
				t.Fatalf("uncancelled run returned %d, want %d", c, want)
			}
			continue
		}
		if err != context.DeadlineExceeded {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if c != 0 {
			t.Fatalf("cancelled CountContext leaked partial count %d", c)
		}
	}
}

// cancelKernelGraph is large enough that every kernel below runs for
// tens of milliseconds uncancelled, so a cancel issued a tenth of the
// way in lands mid-run, and sparse enough (8000 vertices a side, 48
// edges per V1 vertex) that one checkpoint interval is a small slice
// of the run.
func cancelKernelGraph(tb testing.TB) *graph.Bipartite {
	tb.Helper()
	const n, deg = 8000, 48
	b := graph.NewBuilder(n, n)
	seed := uint64(0x2545f4914f6cdd1d)
	for u := 0; u < n; u++ {
		for j := 0; j < deg; j++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			b.AddEdge(u, int(seed>>33)%n)
		}
	}
	return b.Build()
}

// cancelSchedSlack is the scheduling allowance of the mid-run cancel
// bound in TestKernelsCancel.
const cancelSchedSlack = 30 * time.Millisecond

// checkArenaAtRest asserts that a run handed its workspaces back to
// the arena, every one of them with an all-zero accumulator and an
// empty touched list.
func checkArenaAtRest(t *testing.T, a *Arena) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) == 0 {
		t.Fatal("no workspace returned to the arena")
	}
	for i, ws := range a.free {
		if len(ws.touched) != 0 {
			t.Fatalf("workspace %d: touched holds %d entries", i, len(ws.touched))
		}
		for z, c := range ws.acc {
			if c != 0 {
				t.Fatalf("workspace %d: acc[%d] = %d", i, z, c)
			}
		}
	}
}

// TestKernelsCancel runs every cancellable kernel — sequential and
// parallel, masked and unmasked — three ways: uncancelled (timed), with
// a context cancelled before the call, and with a cancel issued a tenth
// of the way into the uncancelled run time. Both cancelled calls must
// return context.Canceled; the mid-run one must also return well before
// the uncancelled run would have ended (the kernel stopped at a
// checkpoint instead of finishing), and the arena must hold its
// workspaces at rest afterwards.
func TestKernelsCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("times full kernel runs; CI's kernel matrix step runs it")
	}
	g := cancelKernelGraph(t)
	n := g.NumV1()
	active := make([]bool, n)
	for i := range active {
		active[i] = i%4 != 0
	}
	s := make([]int64, n)
	count := func(opts Options) func(context.Context, *Arena) error {
		return func(ctx context.Context, a *Arena) error {
			opts.Arena = a
			_, err := CountContext(ctx, g, opts)
			return err
		}
	}
	vertex := func(active []bool, threads int) func(context.Context, *Arena) error {
		return func(ctx context.Context, a *Arena) error {
			return VertexButterfliesMaskedInto(ctx, s, g, SideV1, active, threads, a)
		}
	}
	edges := func(threads int) func(context.Context, *Arena) error {
		return func(ctx context.Context, a *Arena) error {
			_, err := EdgeSupportParallelInto(ctx, nil, g, threads, a)
			return err
		}
	}
	for _, tc := range []struct {
		name  string
		arena bool // the kernel draws its workspaces from the arena
		run   func(context.Context, *Arena) error
	}{
		{"count/seq", true, count(Options{})},
		{"count/par", true, count(Options{Threads: 4})},
		{"count/blocked", true, count(Options{BlockSize: 8})},
		{"vertex/seq", true, vertex(nil, 1)},
		{"vertex/seq-masked", true, vertex(active, 1)},
		{"vertex/par", true, vertex(nil, 4)},
		{"vertex/par-masked", true, vertex(active, 4)},
		{"edges/seq", true, edges(1)},
		{"edges/par", true, edges(4)},
		{"edges/oriented", false, func(ctx context.Context, _ *Arena) error {
			_, err := EdgeSupportContext(ctx, g)
			return err
		}},
		{"partials", false, func(ctx context.Context, _ *Arena) error {
			_, err := WedgePartialsContext(ctx, g)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena()
			start := time.Now()
			if err := tc.run(context.Background(), a); err != nil {
				t.Fatalf("uncancelled run: %v", err)
			}
			full := time.Since(start)

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := tc.run(ctx, a); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
			}

			ctx, cancel = context.WithCancel(context.Background())
			timer := time.AfterFunc(full/10, cancel)
			start = time.Now()
			err := tc.run(ctx, a)
			took := time.Since(start)
			timer.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
			}
			// The bound allows one checkpoint interval plus the Go
			// scheduler's latency in running the timer and the stop
			// callback on saturated CPUs (one 10 ms preemption slice
			// each), and stays well under the uncancelled run.
			if bound := full/10 + full/4 + cancelSchedSlack; took > bound {
				t.Fatalf("mid-run cancel at %v returned after %v (bound %v); an uncancelled run takes %v", full/10, took, bound, full)
			}
			t.Logf("full %v, cancelled run %v", full, took)
			if tc.arena {
				checkArenaAtRest(t, a)
			}
		})
	}
}
