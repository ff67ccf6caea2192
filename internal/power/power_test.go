package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darksim/internal/tech"
)

func TestLeakageShape(t *testing.T) {
	l := DefaultLeakage22()
	// Reference point.
	if got := l.Current(l.VddRef, l.TRef); math.Abs(got-l.I0) > 1e-12 {
		t.Errorf("Current at reference = %v, want I0 = %v", got, l.I0)
	}
	// Monotone in temperature.
	if l.Current(1.0, 90) <= l.Current(1.0, 80) {
		t.Errorf("leakage should grow with temperature")
	}
	// Monotone in voltage.
	if l.Current(1.1, 80) <= l.Current(1.0, 80) {
		t.Errorf("leakage should grow with voltage")
	}
	// Gated core leaks nothing.
	if l.Current(0, 80) != 0 || l.Power(0, 80) != 0 {
		t.Errorf("gated core should not leak")
	}
	// Power = V·I.
	if got, want := l.Power(0.9, 70), 0.9*l.Current(0.9, 70); got != want {
		t.Errorf("Power = %v, want %v", got, want)
	}
}

func TestLeakageScale(t *testing.T) {
	l := DefaultLeakage22()
	f, err := tech.FactorsFor(tech.Node16)
	if err != nil {
		t.Fatal(err)
	}
	s := l.Scale(f)
	if s.VddRef != l.VddRef*f.Vdd {
		t.Errorf("scaled VddRef = %v", s.VddRef)
	}
	if s.I0 != l.I0*f.Capacitance*f.Frequency {
		t.Errorf("scaled I0 = %v", s.I0)
	}
	if s.GammaT != l.GammaT || s.GammaV != l.GammaV {
		t.Errorf("sensitivities should not scale")
	}
}

func TestCoreModelPower(t *testing.T) {
	m := CoreModel{CeffNF: 2.0, PindW: 0.3, Leak: DefaultLeakage22()}
	// Dark core consumes nothing.
	if m.Power(1, 0, 0, 80) != 0 {
		t.Errorf("dark core should consume 0")
	}
	if m.Power(1, 0.9, 0, 80) != 0 || m.Power(1, 0, 2.0, 80) != 0 {
		t.Errorf("gated core should consume 0")
	}
	// Dynamic term: α·Ceff·V²·f = 0.5·2.0·1·2 = 2 W.
	if got := m.Dynamic(0.5, 1.0, 2.0); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Dynamic = %v, want 2", got)
	}
	total := m.Power(0.5, 1.0, 2.0, 80)
	want := 2.0 + m.Leak.Power(1.0, 80) + 0.3
	if math.Abs(total-want) > 1e-12 {
		t.Errorf("Power = %v, want %v", total, want)
	}
}

func TestCoreModelScaleReducesSwitchingEnergy(t *testing.T) {
	m := CoreModel{CeffNF: 2.0, PindW: 0.3, Leak: DefaultLeakage22()}
	f, err := tech.FactorsFor(tech.Node8)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Scale(f)
	if s.CeffNF != 2.0*0.24 {
		t.Errorf("scaled Ceff = %v", s.CeffNF)
	}
	if s.PindW >= m.PindW {
		t.Errorf("Pind should shrink at 8 nm: %v", s.PindW)
	}
	// Energy per operation at nominal V/f must fall with scaling
	// (C·V² shrinks), even though frequency rises.
	e22 := m.CeffNF * 1.0 * 1.0
	e8 := s.CeffNF * (1.0 * f.Vdd) * (1.0 * f.Vdd)
	if e8 >= e22 {
		t.Errorf("switching energy should fall: 22nm %v vs 8nm %v", e22, e8)
	}
}

// rmsError is the root-mean-square error of m against the samples, in
// watts.
func rmsError(m CoreModel, samples []Sample, alpha float64) float64 {
	var sum float64
	for _, s := range samples {
		d := m.Power(alpha, s.Vdd, s.FGHz, s.TempC) - s.PowerW
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
}

func TestFitRecoversKnownModel(t *testing.T) {
	truth := CoreModel{CeffNF: 1.8, PindW: 0.4, Leak: DefaultLeakage22()}
	alpha := 0.9
	var samples []Sample
	for f := 0.5; f <= 4.0; f += 0.25 {
		vdd := 0.6 + 0.2*f // arbitrary but monotone pairing
		samples = append(samples, Sample{
			FGHz: f, Vdd: vdd, TempC: 75,
			PowerW: truth.Power(alpha, vdd, f, 75),
		})
	}
	got, err := Fit(samples, truth.Leak, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CeffNF-truth.CeffNF) > 1e-6 {
		t.Errorf("CeffNF = %v, want %v", got.CeffNF, truth.CeffNF)
	}
	if math.Abs(got.PindW-truth.PindW) > 1e-6 {
		t.Errorf("PindW = %v, want %v", got.PindW, truth.PindW)
	}
	if rms := rmsError(got, samples, alpha); rms > 1e-9 {
		t.Errorf("RMS = %v on noiseless data", rms)
	}
}

func TestFitWithNoise(t *testing.T) {
	truth := CoreModel{CeffNF: 2.2, PindW: 0.2, Leak: DefaultLeakage22()}
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for f := 0.5; f <= 4.0; f += 0.1 {
		vdd := 0.55 + 0.22*f
		p := truth.Power(1, vdd, f, 80) * (1 + 0.02*rng.NormFloat64())
		samples = append(samples, Sample{FGHz: f, Vdd: vdd, TempC: 80, PowerW: p})
	}
	got, err := Fit(samples, truth.Leak, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CeffNF-truth.CeffNF)/truth.CeffNF > 0.05 {
		t.Errorf("CeffNF = %v, want ≈%v", got.CeffNF, truth.CeffNF)
	}
	if rmsError(got, samples, 1) > 0.5 {
		t.Errorf("RMS too large: %v", rmsError(got, samples, 1))
	}
}

func TestFitErrors(t *testing.T) {
	leak := DefaultLeakage22()
	if _, err := Fit(nil, leak, 1); err == nil {
		t.Errorf("no samples should error")
	}
	if _, err := Fit([]Sample{{FGHz: 1, Vdd: 1, PowerW: 1}}, leak, 1); err == nil {
		t.Errorf("one sample should error")
	}
	two := []Sample{{FGHz: 1, Vdd: 1, PowerW: 2}, {FGHz: 2, Vdd: 1.1, PowerW: 4}}
	if _, err := Fit(two, leak, 0); err == nil {
		t.Errorf("zero alpha should error")
	}
	// Identical design rows make the normal equations singular.
	same := []Sample{{FGHz: 1, Vdd: 1, PowerW: 2}, {FGHz: 1, Vdd: 1, PowerW: 2}}
	if _, err := Fit(same, leak, 1); err == nil {
		t.Errorf("degenerate design should error")
	}
	// A decreasing power-vs-f relation yields non-physical Ceff.
	neg := []Sample{{FGHz: 1, Vdd: 1, PowerW: 10}, {FGHz: 4, Vdd: 1.4, PowerW: 1}}
	if _, err := Fit(neg, leak, 1); err == nil {
		t.Errorf("non-physical fit should error")
	}
}

func TestFitClampsSmallNegativeIntercept(t *testing.T) {
	// Noise-free data with Pind = 0 plus a leakage model that slightly
	// overestimates produces a tiny negative intercept; Fit must clamp it.
	truth := CoreModel{CeffNF: 1.0, PindW: 0, Leak: DefaultLeakage22()}
	over := truth.Leak
	over.I0 *= 1.05
	var samples []Sample
	for f := 1.0; f <= 3.0; f += 0.5 {
		vdd := 0.6 + 0.2*f
		samples = append(samples, Sample{FGHz: f, Vdd: vdd, TempC: 80, PowerW: truth.Power(1, vdd, f, 80)})
	}
	got, err := Fit(samples, over, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.PindW != 0 {
		t.Errorf("PindW = %v, want clamped 0", got.PindW)
	}
}

// Property: power is monotone in each of α, Vdd (for fixed f) and f.
func TestPowerMonotoneProperty(t *testing.T) {
	m := CoreModel{CeffNF: 1.5, PindW: 0.3, Leak: DefaultLeakage22()}
	f := func(a1, a2, v1, v2, f1, f2 float64) bool {
		norm := func(x, lo, hi float64) float64 { return lo + math.Mod(math.Abs(x), hi-lo) }
		aLo, aHi := norm(a1, 0.1, 1.0), norm(a2, 0.1, 1.0)
		if aLo > aHi {
			aLo, aHi = aHi, aLo
		}
		vLo, vHi := norm(v1, 0.4, 1.3), norm(v2, 0.4, 1.3)
		if vLo > vHi {
			vLo, vHi = vHi, vLo
		}
		fLo, fHi := norm(f1, 0.2, 4.4), norm(f2, 0.2, 4.4)
		if fLo > fHi {
			fLo, fHi = fHi, fLo
		}
		const temp = 80
		if m.Power(aLo, 1.0, 2.0, temp) > m.Power(aHi, 1.0, 2.0, temp)+1e-12 {
			return false
		}
		if m.Power(0.5, vLo, 2.0, temp) > m.Power(0.5, vHi, 2.0, temp)+1e-12 {
			return false
		}
		return m.Power(0.5, 1.0, fLo, temp) <= m.Power(0.5, 1.0, fHi, temp)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

// Property: fitting noiseless synthetic data recovers Ceff for random
// ground-truth models.
func TestFitRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := CoreModel{
			CeffNF: 0.5 + 3*rng.Float64(),
			PindW:  rng.Float64(),
			Leak:   DefaultLeakage22(),
		}
		alpha := 0.3 + 0.7*rng.Float64()
		var samples []Sample
		for fr := 0.5; fr <= 4.0; fr += 0.5 {
			vdd := 0.5 + 0.2*fr
			samples = append(samples, Sample{FGHz: fr, Vdd: vdd, TempC: 70, PowerW: truth.Power(alpha, vdd, fr, 70)})
		}
		got, err := Fit(samples, truth.Leak, alpha)
		if err != nil {
			return false
		}
		return math.Abs(got.CeffNF-truth.CeffNF) < 1e-6 && math.Abs(got.PindW-truth.PindW) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
