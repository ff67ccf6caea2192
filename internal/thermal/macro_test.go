package thermal

import (
	"math"
	"testing"

	"darksim/internal/tech"
)

// macroTestPower is an uneven 100-block power map that heats the chip
// well above ambient so macro-vs-exact drift has room to show.
func macroTestPower() []float64 {
	p := make([]float64, 100)
	for i := range p {
		p[i] = 1.5 + 0.05*float64(i%7)
	}
	return p
}

// TestMacroStepMatchesExact is the macro property test on real models:
// advancing k frozen-power steps through the affine-powers ladder must
// agree with k exact steps to within 1e-9, under both compatibility
// solver kinds.
func TestMacroStepMatchesExact(t *testing.T) {
	for _, kind := range []SolverKind{SolverDense, SolverSparse} {
		m := modelWithSolver(t, kind)
		const tol = 1e-9
		p := macroTestPower()
		for _, k := range []int{1, 3, 7, 50, 130, 1000} {
			exact, err := m.NewTransient(1e-3)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := m.NewTransient(1e-3)
			if err != nil {
				t.Fatal(err)
			}
			if !fast.MacroSupported() {
				t.Fatalf("%v: macro unsupported on %d nodes", kind, m.NumNodes())
			}
			var want []float64
			for s := 0; s < k; s++ {
				if want, err = exact.Step(p); err != nil {
					t.Fatal(err)
				}
			}
			got, err := fast.MacroStep(p, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := math.Abs(got[i] - want[i]); d > tol*(1+math.Abs(want[i])) {
					t.Fatalf("%v k=%d block %d: macro %v vs exact %v (|Δ|=%g)",
						kind, k, i, got[i], want[i], d)
				}
			}
		}
	}
}

// TestMacroStepFallbackBitIdentical pins that short advances — below the
// ladder's break-even — take the exact kernel and match repeated Step
// calls bit for bit.
func TestMacroStepFallbackBitIdentical(t *testing.T) {
	m := model16(t)
	p := macroTestPower()
	exact, err := m.NewTransient(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.NewTransient(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	k := macroMinSteps - 1
	var want []float64
	for s := 0; s < k; s++ {
		if want, err = exact.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fast.MacroStep(p, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d: fallback %v != exact %v", i, got[i], want[i])
		}
	}
}

// TestAdvanceQuietSnapsToSteady drives a transient from ambient under
// constant power: quiet advances must converge to the frozen-power
// steady state and eventually snap exactly onto it, after which further
// advances are fixed points.
func TestAdvanceQuietSnapsToSteady(t *testing.T) {
	m := model16(t)
	p := macroTestPower()
	tr, err := m.NewTransient(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	var temps []float64
	for seg := 0; seg < 400; seg++ { // 400 s simulated: well past the sink time constant
		var ok bool
		temps, ok, err = tr.AdvanceQuiet(p, 1000, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("AdvanceQuiet refused with no safety cap")
		}
	}
	for i := range want {
		if d := math.Abs(temps[i] - want[i]); d > 0.02 {
			t.Fatalf("block %d: quiet advance ended at %v, steady %v (|Δ|=%g)", i, temps[i], want[i], d)
		}
	}
	// Snapped: one more advance must be an exact fixed point.
	again, ok, err := tr.AdvanceQuiet(p, 1000, 0.01, 0)
	if err != nil || !ok {
		t.Fatalf("post-snap advance: ok=%v err=%v", ok, err)
	}
	for i := range temps {
		if again[i] != temps[i] {
			t.Fatalf("block %d: snapped state moved: %v -> %v", i, temps[i], again[i])
		}
	}
}

// TestAdvanceQuietRefusesAboveSafetyCap pins the DTM guard: when the
// frozen-power steady state would exceed the cap, AdvanceQuiet must
// refuse without touching the state.
func TestAdvanceQuietRefusesAboveSafetyCap(t *testing.T) {
	m := model16(t)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 6 // hot enough to settle far above any sane cap
	}
	tr, err := m.NewTransient(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), tr.BlockTemps()...)
	temps, ok, err := tr.AdvanceQuiet(p, 100, 0.01, 50)
	if err != nil {
		t.Fatal(err)
	}
	if ok || temps != nil {
		t.Fatalf("want refusal above safety cap, got ok=%v temps=%v", ok, temps != nil)
	}
	after := tr.BlockTemps()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("block %d: refused advance still moved state", i)
		}
	}
}

// TestTransientBatchMatchesStep pins the lockstep batch to the
// sequential path bit for bit, including inactive lanes staying frozen:
// on the 100-core platform under both compatibility solver kinds, and on
// fig13's 11 nm / 198-core platform, whose 556 nodes sat above the old
// dense/sparse switch where lanes could not share a sweep.
func TestTransientBatchMatchesStep(t *testing.T) {
	models := []struct {
		kind string
		m    *Model
	}{
		{"dense", modelWithSolver(t, SolverDense)},
		{"sparse", modelWithSolver(t, SolverSparse)},
		{"11nm/198", paperModel(t, tech.Node11, 198)},
	}
	for _, c := range models {
		kind, m := c.kind, c.m
		if kind == "11nm/198" && m.NumNodes() <= 512 {
			t.Fatalf("%s has %d nodes, want more than 512", kind, m.NumNodes())
		}
		const lanes = 3
		batch, err := m.NewTransientBatch(1e-3, lanes)
		if err != nil {
			t.Fatal(err)
		}
		seq := make([]*Transient, lanes)
		powers := make([][]float64, lanes)
		temps := make([][]float64, lanes)
		for i := range seq {
			if seq[i], err = m.NewTransient(1e-3); err != nil {
				t.Fatal(err)
			}
			powers[i] = make([]float64, m.NumBlocks())
			for j := range powers[i] {
				powers[i][j] = 1 + 0.3*float64(i) + 0.01*float64(j%11)
			}
			temps[i] = make([]float64, m.NumBlocks())
		}
		active := []bool{true, true, true}
		for step := 0; step < 25; step++ {
			if step == 15 {
				active[1] = false // drop a lane mid-run
			}
			if err := batch.StepAll(powers, active, temps); err != nil {
				t.Fatal(err)
			}
			for i := range seq {
				if !active[i] {
					continue
				}
				want, err := seq[i].Step(powers[i])
				if err != nil {
					t.Fatal(err)
				}
				for b := range want {
					if temps[i][b] != want[b] {
						t.Fatalf("%s step %d lane %d block %d: batch %v != sequential %v",
							kind, step, i, b, temps[i][b], want[b])
					}
				}
			}
		}
		// The dropped lane's state must be exactly where step 14 left it.
		lane1 := batch.Transient(1).BlockTemps()
		want := seq[1].BlockTemps()
		for b := range want {
			if lane1[b] != want[b] {
				t.Fatalf("%s: dropped lane moved: block %d %v != %v", kind, b, lane1[b], want[b])
			}
		}
	}
}
