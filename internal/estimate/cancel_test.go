package estimate

import (
	"context"
	"errors"
	"testing"
	"time"

	"butterfly/internal/gen"
)

// TestSampleContextCancel: both sampling strategies return
// context.Canceled for a context cancelled before the call, and for a
// cancel issued a tenth of the way into a fixed-budget run they stop
// at the next batch boundary (every 32 draws) — well before the
// uncancelled run ends.
func TestSampleContextCancel(t *testing.T) {
	g := gen.PowerLawBipartite(3000, 2000, 30000, 0.7, 0.7, 9)
	for _, strat := range []Strategy{StrategyVertices, StrategyEdges} {
		t.Run(strat.String(), func(t *testing.T) {
			opts := Options{Strategy: strat, Samples: 20000, Seed: 1}
			start := time.Now()
			want, err := SampleContext(context.Background(), g, opts)
			if err != nil {
				t.Fatalf("uncancelled run: %v", err)
			}
			full := time.Since(start)
			if got, _ := Sample(g, opts); got != want {
				t.Fatalf("Sample = %+v, SampleContext = %+v", got, want)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := SampleContext(ctx, g, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
			}

			ctx, cancel = context.WithCancel(context.Background())
			timer := time.AfterFunc(full/10, cancel)
			start = time.Now()
			_, err = SampleContext(ctx, g, opts)
			took := time.Since(start)
			timer.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
			}
			if bound := full/10 + full/4 + 30*time.Millisecond; took > bound {
				t.Fatalf("cancel at %v returned after %v (bound %v); an uncancelled run takes %v", full/10, took, bound, full)
			}
		})
	}
}
