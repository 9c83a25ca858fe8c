package peel

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/gen"
)

// TestKSubgraphCancel runs the k-tip and k-wing extractions of both
// engines, sequential and parallel, three ways: uncancelled (timed),
// with a context cancelled before the call, and with a cancel issued
// into the run — early (in the seed sweep) and half-way (in the peeling
// rounds). Cancelled calls must return context.Canceled, and a
// mid-run cancel must end the call within a checkpoint interval — the
// seed sweep, each recount and each delta batch poll the stop flag —
// plus the scheduler's latency in running the timer and the stop
// callback on saturated CPUs, well before the uncancelled run ends.
func TestKSubgraphCancel(t *testing.T) {
	g := gen.PowerLawBipartite(6000, 4000, 60000, 0.7, 0.7, 5)
	for _, eng := range []Engine{EngineDelta, EngineRecount} {
		for _, threads := range []int{1, 4} {
			o := Options{Engine: eng, Threads: threads}
			for _, tc := range []struct {
				mode string
				run  func(ctx context.Context) error
			}{
				{"tip", func(ctx context.Context) error {
					_, _, err := KTipWithContext(ctx, g, 400, core.SideV1, o)
					return err
				}},
				{"wing", func(ctx context.Context) error {
					_, _, err := KWingWithContext(ctx, g, 40, o)
					return err
				}},
			} {
				t.Run(fmt.Sprintf("%s/%v/threads=%d", tc.mode, eng, threads), func(t *testing.T) {
					start := time.Now()
					if err := tc.run(context.Background()); err != nil {
						t.Fatalf("uncancelled run: %v", err)
					}
					full := time.Since(start)

					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if err := tc.run(ctx); !errors.Is(err, context.Canceled) {
						t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
					}

					for _, at := range []time.Duration{full / 10, full / 2} {
						ctx, cancel := context.WithCancel(context.Background())
						timer := time.AfterFunc(at, cancel)
						start := time.Now()
						err := tc.run(ctx)
						took := time.Since(start)
						timer.Stop()
						cancel()
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("cancel at %v: err = %v, want context.Canceled", at, err)
						}
						if bound := at + full/4 + 30*time.Millisecond; took > bound {
							t.Fatalf("cancel at %v returned after %v (bound %v); an uncancelled run takes %v", at, took, bound, full)
						}
					}
				})
			}
		}
	}
}
