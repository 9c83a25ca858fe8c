package core

import (
	"context"
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
