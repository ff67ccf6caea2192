package thermal

import (
	"math"
	"testing"

	"darksim/internal/tech"
)

// quietTestPower is an uneven 100-block power map that heats the chip
// well above ambient.
func quietTestPower() []float64 {
	p := make([]float64, 100)
	for i := range p {
		p[i] = 1.5 + 0.05*float64(i%7)
	}
	return p
}

// TestMacroStepFallbackBitIdentical pins the MacroStep shim: for every
// step count, k steps of a frozen power map match k Step calls bit for
// bit.
func TestMacroStepFallbackBitIdentical(t *testing.T) {
	m := model16(t)
	p := quietTestPower()
	for _, k := range []int{1, 2, 3, 4, 7, 50} {
		exact, err := m.NewTransient(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := m.NewTransient(1e-3)
		if err != nil {
			t.Fatal(err)
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
			if got[i] != want[i] {
				t.Fatalf("k=%d block %d: MacroStep %v != %d Step calls %v", k, i, got[i], k, want[i])
			}
		}
	}
}

// TestAdvanceQuietSnapsToSteady drives a transient from ambient under
// constant power the way the engine does: ask AdvanceQuiet, and step
// exactly while it refuses. A refusal must leave the state untouched;
// once the state is within the tolerance of the frozen-power steady
// state AdvanceQuiet snaps exactly onto it, after which further calls
// are fixed points.
func TestAdvanceQuietSnapsToSteady(t *testing.T) {
	m := model16(t)
	p := quietTestPower()
	tr, err := m.NewTransient(0.1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	var temps []float64
	snapped := false
	for seg := 0; seg < 400 && !snapped; seg++ { // 400 s simulated: well past the sink time constant
		before := tr.BlockTemps()
		temps, snapped, err = tr.AdvanceQuiet(p, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		if snapped {
			break
		}
		if !floatsEqual(tr.BlockTemps(), before) {
			t.Fatalf("segment %d: refused AdvanceQuiet moved the state", seg)
		}
		for s := 0; s < 10; s++ {
			if _, err := tr.Step(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !snapped {
		t.Fatal("AdvanceQuiet never snapped within 400 s")
	}
	for i := range want {
		if d := math.Abs(temps[i] - want[i]); d > 0.02 {
			t.Fatalf("block %d: snapped at %v, steady %v (|Δ|=%g)", i, temps[i], want[i], d)
		}
	}
	// Snapped: one more call must be an exact fixed point.
	again, ok, err := tr.AdvanceQuiet(p, 0.01, 0)
	if err != nil || !ok {
		t.Fatalf("post-snap call: ok=%v err=%v", ok, err)
	}
	for i := range temps {
		if again[i] != temps[i] {
			t.Fatalf("block %d: snapped state moved: %v -> %v", i, temps[i], again[i])
		}
	}
}

// TestAdvanceQuietRefusesAboveSafetyCap pins the DTM guard: when the
// frozen-power steady state would exceed the cap, AdvanceQuiet must
// refuse without touching the state, even from that very steady state.
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
	if err := tr.SetSteadyState(p); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), tr.BlockTemps()...)
	temps, ok, err := tr.AdvanceQuiet(p, 0.01, 50)
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
	// Without the cap the same state snaps.
	if _, ok, err := tr.AdvanceQuiet(p, 0.01, 0); err != nil || !ok {
		t.Fatalf("uncapped call from the steady state: ok=%v err=%v", ok, err)
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
