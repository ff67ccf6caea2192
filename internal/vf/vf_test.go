package vf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darksim/internal/tech"
)

func TestFrequencyMatchesPaperAnchors(t *testing.T) {
	// Figure 2 is drawn for 22 nm with k=3.7 and Vth=178 mV. Sanity-check
	// a literal evaluation of Eq.(2) at 1.0 V: 3.7·(0.822)²/1.0 ≈ 2.50 GHz.
	c := Curve{K: 3.7, Vth: 0.178, VddNominal: 1.0, FmaxGHz: 2.5}
	got := c.FrequencyGHz(1.0)
	if math.Abs(got-2.5) > 0.01 {
		t.Errorf("f(1.0V) = %v GHz, want ≈2.50", got)
	}
	if c.FrequencyGHz(0.178) != 0 || c.FrequencyGHz(0.1) != 0 {
		t.Errorf("f at/below Vth should be 0")
	}
}

func TestVoltageForRoundTrip(t *testing.T) {
	for _, n := range tech.Nodes() {
		c := MustCurve(n)
		for f := 0.2; f <= c.FmaxGHz+0.6; f += 0.1 {
			v, err := c.VoltageFor(f)
			if err != nil {
				t.Fatalf("%v: VoltageFor(%.1f): %v", n, f, err)
			}
			back := c.FrequencyGHz(v)
			if math.Abs(back-f) > 1e-9 {
				t.Fatalf("%v: round trip %.1f GHz -> %.4f V -> %.6f GHz", n, f, v, back)
			}
			if v <= c.Vth {
				t.Fatalf("%v: voltage %.3f below threshold", n, v)
			}
		}
	}
}

func TestVoltageForErrors(t *testing.T) {
	c := MustCurve(tech.Node22)
	if _, err := c.VoltageFor(0); err == nil {
		t.Errorf("zero frequency should error")
	}
	if _, err := c.VoltageFor(-1); err == nil {
		t.Errorf("negative frequency should error")
	}
}

func TestVoltageIsMinimal(t *testing.T) {
	// Any voltage slightly below the returned one must not sustain f.
	c := MustCurve(tech.Node16)
	for _, f := range []float64{1.0, 2.0, 3.0, 3.6} {
		v, err := c.VoltageFor(f)
		if err != nil {
			t.Fatal(err)
		}
		if c.FrequencyGHz(v-1e-4) >= f {
			t.Errorf("voltage %.4f for %.1f GHz is not minimal", v, f)
		}
	}
}

func TestNominalAnchors(t *testing.T) {
	// At the nominal voltage each node must reach exactly its nominal fmax.
	for _, n := range tech.Nodes() {
		c := MustCurve(n)
		got := c.FrequencyGHz(c.VddNominal)
		if math.Abs(got-c.FmaxGHz) > 1e-9 {
			t.Errorf("%v: f(Vnom) = %v, want %v", n, got, c.FmaxGHz)
		}
	}
}

func TestRegionClassification(t *testing.T) {
	c := MustCurve(tech.Node11) // VddNominal = 0.81
	cases := []struct {
		vdd  float64
		want Region
	}{
		{0.40, RegionNTC},
		{0.59, RegionNTC},
		{0.60, RegionSTC},
		{0.81, RegionSTC},
		{0.90, RegionBoost},
	}
	for _, cse := range cases {
		if got := c.RegionOf(cse.vdd); got != cse.want {
			t.Errorf("RegionOf(%.2f) = %v, want %v", cse.vdd, got, cse.want)
		}
	}
	if RegionNTC.String() != "NTC" || RegionSTC.String() != "STC" || RegionBoost.String() != "Boost" {
		t.Errorf("Region strings wrong")
	}
	if Region(9).String() == "" {
		t.Errorf("unknown region should still render")
	}
}

func TestNTCAnchorFromFig14(t *testing.T) {
	// Figure 14: at 11 nm, NTC instances run 1 GHz at 0.46 V. Our curve
	// should place ≈1 GHz within the NTC region near that voltage.
	c := MustCurve(tech.Node11)
	v, err := c.VoltageFor(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if c.RegionOf(v) != RegionNTC {
		t.Errorf("1 GHz at 11 nm should be NTC; got %.3f V (%v)", v, c.RegionOf(v))
	}
	if v < 0.3 || v > 0.6 {
		t.Errorf("1 GHz voltage = %.3f V, expected in [0.3, 0.6]", v)
	}
}

func TestPointAt(t *testing.T) {
	c := MustCurve(tech.Node16)
	p, err := c.PointAt(3.6)
	if err != nil {
		t.Fatal(err)
	}
	if p.Region != RegionSTC {
		t.Errorf("nominal point region = %v", p.Region)
	}
	pb, err := c.PointAt(4.2)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Region != RegionBoost {
		t.Errorf("4.2 GHz at 16 nm should be boost; got %v at %.3f V", pb.Region, pb.Vdd)
	}
	if _, err := c.PointAt(-2); err == nil {
		t.Errorf("negative frequency should error")
	}
}

func TestNewLadderDefaults(t *testing.T) {
	c := MustCurve(tech.Node16)
	l, err := NewLadder(c, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	levels := l.Levels()
	if levels[0] != 0.4 {
		t.Errorf("first level = %v, want 0.4", levels[0])
	}
	if last := levels[len(levels)-1]; last != 3.6 {
		t.Errorf("last level = %v, want 3.6", last)
	}
	for i := 1; i < len(levels); i++ {
		if math.Abs(levels[i]-levels[i-1]-0.2) > 1e-9 {
			t.Fatalf("non-uniform step between %v and %v", levels[i-1], levels[i])
		}
	}
	// Voltages strictly increasing with frequency.
	for i := 1; i < len(l.Points); i++ {
		if l.Points[i].Vdd <= l.Points[i-1].Vdd {
			t.Fatalf("voltage not increasing at level %d", i)
		}
	}
}

func TestNewLadderBoostLevels(t *testing.T) {
	c := MustCurve(tech.Node16)
	l, err := NewLadder(c, LadderOptions{MaxGHz: c.FmaxGHz + 0.6})
	if err != nil {
		t.Fatal(err)
	}
	top := l.Points[len(l.Points)-1]
	if top.Region != RegionBoost {
		t.Errorf("top level should be boost; got %v", top.Region)
	}
}

func TestNewLadderErrors(t *testing.T) {
	c := MustCurve(tech.Node22)
	if _, err := NewLadder(c, LadderOptions{MaxGHz: 0.2}); err == nil {
		t.Errorf("a top below the 0.4 GHz floor should error")
	}
	if _, err := NewLadder(c, LadderOptions{StepGHz: -0.2}); err == nil {
		t.Errorf("negative step should error")
	}
}

func TestLadderLookups(t *testing.T) {
	c := MustCurve(tech.Node16)
	l, err := NewLadder(c, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if i := l.Nearest(2.95); math.Abs(l.Points[i].FGHz-3.0) > 1e-9 {
		t.Errorf("Nearest(2.95) = %v", l.Points[i].FGHz)
	}
	if i := l.AtOrBelow(2.95); math.Abs(l.Points[i].FGHz-2.8) > 1e-9 {
		t.Errorf("AtOrBelow(2.95) = %v", l.Points[i].FGHz)
	}
	if i := l.AtOrBelow(3.0); math.Abs(l.Points[i].FGHz-3.0) > 1e-9 {
		t.Errorf("AtOrBelow(3.0) = %v", l.Points[i].FGHz)
	}
	if i := l.AtOrBelow(0.1); i != -1 {
		t.Errorf("AtOrBelow below ladder = %d, want -1", i)
	}
	if l.Clamp(-3) != 0 || l.Clamp(999) != len(l.Points)-1 || l.Clamp(2) != 2 {
		t.Errorf("Clamp misbehaves")
	}
}

func TestCurveForUnknownNode(t *testing.T) {
	if _, err := CurveFor(tech.Node(10)); err == nil {
		t.Errorf("unknown node should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustCurve should panic")
		}
	}()
	MustCurve(tech.Node(10))
}

// Property: Eq.(2) is monotonically increasing in Vdd above Vth, so the
// frequency of a higher voltage is never lower.
func TestFrequencyMonotoneProperty(t *testing.T) {
	c := MustCurve(tech.Node22)
	f := func(a, b float64) bool {
		// Map inputs into (Vth, 1.6].
		va := c.Vth + math.Mod(math.Abs(a), 1.4) + 1e-6
		vb := c.Vth + math.Mod(math.Abs(b), 1.4) + 1e-6
		lo, hi := math.Min(va, vb), math.Max(va, vb)
		return c.FrequencyGHz(lo) <= c.FrequencyGHz(hi)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: VoltageFor ∘ FrequencyGHz is the identity on frequencies.
func TestInverseProperty(t *testing.T) {
	c := MustCurve(tech.Node8)
	f := func(x float64) bool {
		fGHz := 0.05 + math.Mod(math.Abs(x), 5.5)
		v, err := c.VoltageFor(fGHz)
		if err != nil {
			return false
		}
		return math.Abs(c.FrequencyGHz(v)-fGHz) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}
