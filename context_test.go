package butterfly

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestContextFormsMatchAndCancel: every …Context method answers
// exactly like its plain form under a background context, and returns
// context.Canceled for a context cancelled before the call. Mid-run
// cancellation is exercised where the checkpoints live (internal/core,
// internal/peel, internal/estimate).
func TestContextFormsMatchAndCancel(t *testing.T) {
	g, err := GeneratePowerLaw(300, 200, 2500, 0.7, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	check := func(name string, plain, withCtx func(context.Context) (any, error)) {
		t.Helper()
		want, err := plain(bg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := withCtx(bg)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: context form = %v, %v; want %v", name, got, err, want)
		}
		if _, err := withCtx(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled err = %v, want context.Canceled", name, err)
		}
	}
	check("vertex",
		func(context.Context) (any, error) { return g.VertexButterflies(V2) },
		func(ctx context.Context) (any, error) { return g.VertexButterfliesContext(ctx, V2) })
	check("edges",
		func(context.Context) (any, error) { return g.EdgeSupports(), nil },
		func(ctx context.Context) (any, error) { return g.EdgeSupportsContext(ctx) })
	check("partials",
		func(context.Context) (any, error) { return g.WedgePartials(), nil },
		func(ctx context.Context) (any, error) { return g.WedgePartialsContext(ctx) })
	for _, opts := range []EstimateOptions{
		{Strategy: SampleVertices, Samples: 200, Seed: 1},
		{Strategy: SampleEdges, Seed: 1},
		{Strategy: SampleSparsify, P: 0.5, Seed: 1},
	} {
		check("estimate",
			func(context.Context) (any, error) { return g.EstimateWithCI(opts) },
			func(ctx context.Context) (any, error) { return g.EstimateWithCIContext(ctx, opts) })
	}
	for _, engine := range []PeelEngine{PeelDelta, PeelRecount} {
		opts := PeelOptions{Engine: engine, Threads: 2}
		check("k-tip",
			func(context.Context) (any, error) { sub, _, err := g.KTipWith(3, V1, opts); return sub.Edges(), err },
			func(ctx context.Context) (any, error) {
				sub, _, err := g.KTipWithContext(ctx, 3, V1, opts)
				if err != nil {
					return nil, err
				}
				return sub.Edges(), nil
			})
		check("k-wing",
			func(context.Context) (any, error) { sub, _, err := g.KWingWith(2, opts); return sub.Edges(), err },
			func(ctx context.Context) (any, error) {
				sub, _, err := g.KWingWithContext(ctx, 2, opts)
				if err != nil {
					return nil, err
				}
				return sub.Edges(), nil
			})
	}
}
