// Benchmarks: one per table/figure of the paper's evaluation. Each
// benchmark regenerates the corresponding experiment end to end — workload
// generation, parameter sweep, baseline and estimator — so `go test
// -bench=.` reproduces every result of the paper and reports how long the
// pipeline takes.
//
// The transient experiments (Figures 11–13) use shortened run lengths
// here; the cmd/darksim harness runs them at the paper's full durations.
package darksim

import (
	"context"
	"testing"

	"darksim/internal/experiments"
)

// runBench runs fn once per benchmark iteration and fails on error.
func runBench(b *testing.B, fn func() (experiments.Renderer, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1ScalingTable(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig1() })
}

func BenchmarkFig2VoltageFrequency(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig2() })
}

func BenchmarkFig3PowerModelFit(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig3() })
}

func BenchmarkFig4Speedup(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig4() })
}

func BenchmarkFig5DarkSiliconTDP(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig5() })
}

func BenchmarkFig6TempVsTDP(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig6() })
}

func BenchmarkFig7DVFS(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig7() })
}

func BenchmarkFig8Patterning(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig8() })
}

func BenchmarkFig9DsRem(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig9() })
}

func BenchmarkFig10TSP(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig10(context.Background()) })
}

func BenchmarkFig11BoostTransient(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) {
		return experiments.Fig11(context.Background(), 2)
	})
}

func BenchmarkFig12BoostScaling(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) {
		return experiments.Fig12(context.Background(), 0.25)
	})
}

func BenchmarkFig13BoostApps(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) {
		return experiments.Fig13(context.Background(), 0.1)
	})
}

func BenchmarkFig14NTC(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Fig14() })
}

// Ablation benchmarks — the design-choice studies DESIGN.md calls out.

func BenchmarkAblationRotation(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.AblationRotation() })
}

func BenchmarkAblationGrid(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.AblationGrid() })
}

func BenchmarkAblationHoldBand(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.AblationHoldBand() })
}

func BenchmarkAblationStrategies(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.AblationStrategies(context.Background()) })
}

func BenchmarkAblationLadderStep(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.AblationLadderStep() })
}

func BenchmarkAblationAging(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.AblationAging() })
}

func BenchmarkBaselineComparison(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.Baseline() })
}

func BenchmarkAblationVariability(b *testing.B) {
	runBench(b, func() (experiments.Renderer, error) { return experiments.AblationVariability() })
}
