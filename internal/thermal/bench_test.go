package thermal

import (
	"fmt"
	"testing"

	"darksim/internal/floorplan"
)

// benchThermalSolve measures a cold steady-state solve — model
// construction, profile ordering, factorization and one solve — on an
// n×n-core platform; the compatibility solver kind selects nothing.
func benchThermalSolve(b *testing.B, side int, k SolverKind) {
	fp, err := floorplan.NewGrid(side, side, 5.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(fp.DieW, fp.DieH, side, side)
	cfg.Solver = k
	p := make([]float64, side*side)
	for i := range p {
		p[i] = 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewModel(fp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.SteadyState(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThermalSolveDense(b *testing.B) {
	for _, side := range []int{10, 24} {
		b.Run(fmt.Sprintf("cores=%d", side*side), func(b *testing.B) {
			benchThermalSolve(b, side, SolverDense)
		})
	}
}

func BenchmarkThermalSolveSparse(b *testing.B) {
	for _, side := range []int{10, 24} {
		b.Run(fmt.Sprintf("cores=%d", side*side), func(b *testing.B) {
			benchThermalSolve(b, side, SolverSparse)
		})
	}
}
