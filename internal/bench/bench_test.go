package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestThermalSolveSpec runs the micro-benchmark body once on a tiny
// platform and checks the measurement plumbing (name, solver stats)
// without paying real benchmark time.
func TestThermalSolveSpec(t *testing.T) {
	s := thermalSolveSpec(4)
	if s.name != "ThermalSolveSparse/cores=16" {
		t.Fatalf("spec name %q", s.name)
	}
	br := testing.Benchmark(s.run)
	if br.N == 0 {
		t.Fatalf("%s did not run", s.name)
	}
	st := s.solver()
	if st == nil || st.Solves == 0 {
		t.Fatalf("%s reported no solver stats: %+v", s.name, st)
	}
	if st.Path != "envelope" || st.CGIterations != 0 {
		t.Fatalf("%s ran on the %s path with %d CG iterations", s.name, st.Path, st.CGIterations)
	}
}

// TestTransientSpecs runs the transient step benchmark body once on a
// tiny platform.
func TestTransientSpecs(t *testing.T) {
	s := transientStepSpec("Dense", 4)
	if !strings.Contains(s.name, "Dense/cores=16") {
		t.Fatalf("spec name %q", s.name)
	}
	if br := testing.Benchmark(s.run); br.N == 0 {
		t.Fatalf("%s did not run", s.name)
	}
}

func TestComputeSpeedupsAndJSON(t *testing.T) {
	rep := &Report{
		GoVersion: "go0.test",
		Results: []Result{
			{Name: "ThermalSolveSparse/cores=1024", NsPerOp: 10},
			{Name: "TSPWorstCaseSparse/cores=1024", NsPerOp: 25},
			{Name: "TSPWorstCaseWarm/cores=1024", NsPerOp: 5},
			{Name: "InfluenceBlock/cores=1024", NsPerOp: 8},
			{Name: "InfluenceWarm/cores=1024", NsPerOp: 2},
			{Name: "TransientStepDense/cores=100", NsPerOp: 1000},
		},
		Speedups: make(map[string]float64),
	}
	rep.computeSpeedups()
	if got := rep.Speedups["influence_warm/cores=1024"]; got != 4 {
		t.Errorf("influence warm speedup = %v", got)
	}
	if got := rep.Speedups["tsp_warm/cores=1024"]; got != 5 {
		t.Errorf("tsp warm speedup = %v", got)
	}
	if len(rep.Speedups) != 2 {
		t.Errorf("speedups = %v, want exactly the two cold/warm ratios", rep.Speedups)
	}
	// A family missing one entry produces no ratio.
	partial := &Report{Results: rep.Results[:3], Speedups: make(map[string]float64)}
	partial.computeSpeedups()
	if len(partial.Speedups) != 1 {
		t.Errorf("speedups from a partial report = %v, want only tsp_warm", partial.Speedups)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Results) != 6 || back.Speedups["tsp_warm/cores=1024"] != 5 {
		t.Errorf("round-trip lost data: %+v", back)
	}
}
