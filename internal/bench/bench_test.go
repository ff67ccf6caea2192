package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"darksim/internal/thermal"
)

// TestThermalSolveSpec runs the micro-benchmark body once on a tiny
// platform under both spec names and checks the measurement plumbing
// (names, solver stats) without paying real benchmark time.
func TestThermalSolveSpec(t *testing.T) {
	rep := &Report{Speedups: make(map[string]float64)}
	for _, k := range []thermal.SolverKind{thermal.SolverDense, thermal.SolverSparse} {
		s := thermalSolveSpec(4, k)
		if !strings.Contains(s.name, "cores=16") {
			t.Fatalf("spec name %q", s.name)
		}
		br := testing.Benchmark(s.run)
		if br.N == 0 {
			t.Fatalf("%s did not run", s.name)
		}
		r := Result{
			Name:    s.name,
			NsPerOp: float64(br.T.Nanoseconds()) / float64(br.N),
			Solver:  s.solver(),
		}
		if r.Solver == nil || r.Solver.Solves == 0 {
			t.Fatalf("%s reported no solver stats: %+v", s.name, r.Solver)
		}
		// Both compatibility kinds run the one envelope path.
		if r.Solver.Path != "envelope" || r.Solver.CGIterations != 0 {
			t.Fatalf("%s ran on the %s path with %d CG iterations", s.name, r.Solver.Path, r.Solver.CGIterations)
		}
		rep.Results = append(rep.Results, r)
	}
}

// TestTransientSpecs runs the transient step/macro benchmark bodies
// once on a tiny platform under both spec names: below the node gate the
// macro path must be available, so the specs may not silently fall back
// to exact stepping.
func TestTransientSpecs(t *testing.T) {
	for _, k := range []thermal.SolverKind{thermal.SolverDense, thermal.SolverSparse} {
		for _, mk := range []func(int, thermal.SolverKind) spec{transientStepSpec, transientMacroSpec} {
			s := mk(4, k)
			if !strings.Contains(s.name, "cores=16") {
				t.Fatalf("spec name %q", s.name)
			}
			if br := testing.Benchmark(s.run); br.N == 0 {
				t.Fatalf("%s did not run", s.name)
			}
		}
	}
}

func TestComputeSpeedupsAndJSON(t *testing.T) {
	rep := &Report{
		GoVersion: "go0.test",
		Results: []Result{
			{Name: "ThermalSolveDense/cores=1024", NsPerOp: 100},
			{Name: "ThermalSolveSparse/cores=1024", NsPerOp: 10},
			{Name: "TSPWorstCaseDense/cores=1024", NsPerOp: 50},
			{Name: "TSPWorstCaseSparse/cores=1024", NsPerOp: 25},
			{Name: "TSPWorstCaseWarm/cores=1024", NsPerOp: 5},
			{Name: "InfluenceColumn/cores=1024", NsPerOp: 40},
			{Name: "InfluenceBlock/cores=1024", NsPerOp: 8},
			{Name: "InfluenceWarm/cores=1024", NsPerOp: 2},
			{Name: "TransientStepDense/cores=100", NsPerOp: 1000},
			{Name: "TransientMacroDense/cores=100", NsPerOp: 100000},
		},
		Speedups: make(map[string]float64),
	}
	rep.computeSpeedups()
	if got := rep.Speedups["thermal_solve/cores=1024"]; got != 10 {
		t.Errorf("thermal speedup = %v", got)
	}
	if got := rep.Speedups["tsp_worstcase/cores=1024"]; got != 2 {
		t.Errorf("tsp speedup = %v", got)
	}
	if got := rep.Speedups["influence_block/cores=1024"]; got != 5 {
		t.Errorf("influence block speedup = %v", got)
	}
	if got := rep.Speedups["influence_warm/cores=1024"]; got != 4 {
		t.Errorf("influence warm speedup = %v", got)
	}
	if got := rep.Speedups["tsp_warm/cores=1024"]; got != 5 {
		t.Errorf("tsp warm speedup = %v", got)
	}
	// One macro op covers macroBenchSteps exact steps: 1000·1000/100000.
	if got := rep.Speedups["transient_macro_dense/cores=100"]; got != 10 {
		t.Errorf("transient macro speedup = %v", got)
	}
	// The sparse pair was not measured, so no entry may appear.
	if _, ok := rep.Speedups["transient_macro_sparse/cores=100"]; ok {
		t.Errorf("speedup for unmeasured transient pair")
	}
	// Families missing one path produce no entry.
	if _, ok := rep.Speedups["thermal_solve/cores=100"]; ok {
		t.Errorf("speedup for unmeasured family")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Results) != 10 || back.Speedups["thermal_solve/cores=1024"] != 10 {
		t.Errorf("round-trip lost data: %+v", back)
	}
}
