package aging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccelerationAnchors(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Acceleration(80); math.Abs(got-1) > 1e-12 {
		t.Errorf("AF(ref) = %v, want 1", got)
	}
	// Rule of thumb for Ea ≈ 0.8 eV near 80 °C: +10 K roughly doubles
	// the wear rate.
	ratio := m.Acceleration(90) / m.Acceleration(80)
	if ratio < 1.7 || ratio > 2.6 {
		t.Errorf("AF(90)/AF(80) = %.2f, want ≈2", ratio)
	}
	if m.Acceleration(70) >= 1 {
		t.Errorf("below-reference AF should be < 1")
	}
	if m.Acceleration(-kelvinOffset-10) != 0 {
		t.Errorf("non-physical temperature should clamp to 0")
	}
}

func TestModelValidate(t *testing.T) {
	if err := (Model{ActivationEV: 0, RefC: 80}).Validate(); err == nil {
		t.Errorf("zero Ea should error")
	}
	if err := (Model{ActivationEV: 0.8, RefC: -300}).Validate(); err == nil {
		t.Errorf("sub-absolute-zero reference should error")
	}
}

func TestIntegrator(t *testing.T) {
	in, err := NewIntegrator(DefaultModel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Add(10, []float64{80, 90, 70}); err != nil {
		t.Fatal(err)
	}
	if err := in.Add(10, []float64{80, 90, 70}); err != nil {
		t.Fatal(err)
	}
	w := in.wear
	if math.Abs(w[0]-20) > 1e-9 {
		t.Errorf("core at reference should age 1:1, got %v", w[0])
	}
	if !(w[1] > w[0] && w[0] > w[2]) {
		t.Errorf("wear ordering wrong: %v", w)
	}
	max, at := in.MaxWear()
	if at != 1 || max != w[1] {
		t.Errorf("MaxWear = %v@%d", max, at)
	}
	if in.Imbalance() <= 1 {
		t.Errorf("uneven temps should give imbalance > 1: %v", in.Imbalance())
	}
}

func TestIntegratorErrors(t *testing.T) {
	if _, err := NewIntegrator(Model{}, 3); err == nil {
		t.Errorf("invalid model should error")
	}
	if _, err := NewIntegrator(DefaultModel(), 0); err == nil {
		t.Errorf("zero cores should error")
	}
	in, err := NewIntegrator(DefaultModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Add(-1, []float64{80, 80}); err == nil {
		t.Errorf("negative dt should error")
	}
	if err := in.Add(1, []float64{80}); err == nil {
		t.Errorf("length mismatch should error")
	}
}

func TestUniformTempsBalance(t *testing.T) {
	in, err := NewIntegrator(DefaultModel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := in.Add(1, []float64{75, 75, 75, 75, 75}); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(in.Imbalance()-1) > 1e-12 {
		t.Errorf("uniform temps should balance: %v", in.Imbalance())
	}
	var empty Integrator
	if empty.Imbalance() != 0 {
		t.Errorf("empty integrator imbalance = %v", empty.Imbalance())
	}
}

// Property: acceleration is monotone increasing in temperature.
func TestAccelerationMonotoneProperty(t *testing.T) {
	m := DefaultModel()
	f := func(a, b float64) bool {
		t1 := 20 + math.Mod(math.Abs(a), 100)
		t2 := 20 + math.Mod(math.Abs(b), 100)
		lo, hi := math.Min(t1, t2), math.Max(t1, t2)
		return m.Acceleration(lo) <= m.Acceleration(hi)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// Property: wear is additive — integrating in two halves equals one go.
func TestWearAdditiveProperty(t *testing.T) {
	m := DefaultModel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		temps := []float64{60 + 30*rng.Float64(), 60 + 30*rng.Float64()}
		one, err := NewIntegrator(m, 2)
		if err != nil {
			return false
		}
		two, err := NewIntegrator(m, 2)
		if err != nil {
			return false
		}
		if one.Add(2, temps) != nil {
			return false
		}
		if two.Add(1, temps) != nil || two.Add(1, temps) != nil {
			return false
		}
		a, b := one.wear, two.wear
		return math.Abs(a[0]-b[0]) < 1e-12 && math.Abs(a[1]-b[1]) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
