package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestFiguresDeterministicAcrossRuns runs every figure twice in one
// process — once against a cold platform cache, once warm — and requires
// identical structured tables. This pins two contracts at once: the
// trace generator's seeded noise is reproducible, and the platform LRU
// cache returns equivalent state rather than leaking mutations between
// runs. Transient figures use short durations so the double pass stays
// affordable.
func TestFiguresDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("double full-figure pass in -short mode")
	}
	ctx := context.Background()
	runs := make([]struct {
		id  string
		run func(context.Context) (Renderer, error)
	}, 0, len(Registry()))
	for _, e := range Registry() {
		entry := struct {
			id  string
			run func(context.Context) (Renderer, error)
		}{id: e.ID, run: func(ctx context.Context) (Renderer, error) { return e.Run(ctx, 0) }}
		switch e.ID {
		case "fig11":
			entry.run = func(ctx context.Context) (Renderer, error) {
				return Fig11(ctx, Fig11Options{DurationS: 0.5, Instances: 12})
			}
		case "fig12":
			entry.run = func(ctx context.Context) (Renderer, error) {
				return Fig12(ctx, Fig12Options{DurationS: 0.5, StepCores: 32})
			}
		case "fig13":
			entry.run = func(ctx context.Context) (Renderer, error) {
				return Fig13(ctx, Fig13Options{DurationS: 0.5, Instances: []int{12}})
			}
		}
		runs = append(runs, entry)
	}
	for _, entry := range runs {
		t.Run(entry.id, func(t *testing.T) {
			tables := make([][]any, 2)
			for pass := 0; pass < 2; pass++ {
				if pass == 0 {
					ResetPlatforms() // cold cache on the first pass only
				}
				r, err := entry.run(ctx)
				if err != nil {
					t.Fatalf("pass %d: %v", pass+1, err)
				}
				ts, ok := TablesOf(r)
				if !ok {
					t.Fatalf("pass %d: no structured tables", pass+1)
				}
				for _, tab := range ts {
					tables[pass] = append(tables[pass], tab)
				}
			}
			if len(tables[0]) != len(tables[1]) {
				t.Fatalf("table count changed between passes: %d vs %d", len(tables[0]), len(tables[1]))
			}
			for i := range tables[0] {
				if !reflect.DeepEqual(tables[0][i], tables[1][i]) {
					t.Errorf("table %d differs between cold and warm pass:\ncold: %s\nwarm: %s",
						i+1, fmt.Sprint(tables[0][i]), fmt.Sprint(tables[1][i]))
				}
			}
		})
	}
}
