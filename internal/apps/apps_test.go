package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darksim/internal/tech"
	"darksim/internal/vf"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog has %d apps, want 7", len(cat))
	}
	want := map[string]bool{
		"x264": true, "blackscholes": true, "bodytrack": true, "ferret": true,
		"canneal": true, "dedup": true, "swaptions": true,
	}
	for _, a := range cat {
		if !want[a.Name] {
			t.Errorf("unexpected app %q", a.Name)
		}
		delete(want, a.Name)
		if a.IPC <= 0 || a.IPC > 4 {
			t.Errorf("%s: IPC %v out of range for a 4-wide core", a.Name, a.IPC)
		}
		if a.ParallelFrac < 0 || a.ParallelFrac > 1 {
			t.Errorf("%s: parallel fraction %v", a.Name, a.ParallelFrac)
		}
		if a.Alpha <= 0 || a.Alpha > 1 || a.AlphaSingle < a.Alpha {
			t.Errorf("%s: activity factors alpha=%v single=%v", a.Name, a.Alpha, a.AlphaSingle)
		}
		if a.Ceff22NF <= 0 {
			t.Errorf("%s: Ceff %v", a.Name, a.Ceff22NF)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing apps: %v", want)
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "canneal" {
		t.Errorf("got %q", a.Name)
	}
	if _, err := ByName("doom"); err == nil {
		t.Errorf("unknown app should error")
	}
}

func TestFig3Anchor(t *testing.T) {
	// Figure 3: x264 single thread at 22 nm draws ≈15 W at 4 GHz and the
	// curve is cubic-ish: ≈2–6 W at 2 GHz.
	x, err := ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	p4 := singleThreadPower22(t, x, 4.0)
	if p4 < 12 || p4 > 19 {
		t.Errorf("x264 @22nm 4GHz = %.2f W, want ≈15 (Fig. 3)", p4)
	}
	p2 := singleThreadPower22(t, x, 2.0)
	if p2 < 2 || p2 > 7 {
		t.Errorf("x264 @22nm 2GHz = %.2f W, want 2–7 (Fig. 3)", p2)
	}
	// Superlinear growth: P(4)/P(2) must exceed the frequency ratio 2.
	if p4/p2 < 2.2 {
		t.Errorf("power should grow superlinearly with f: P4/P2 = %.2f", p4/p2)
	}
}

// singleThreadPower22 is the 22 nm Equation (1) power of one thread of a
// at fGHz (minimum Eq.(2) voltage, 60 °C): the quantity Figure 3 plots.
func singleThreadPower22(t *testing.T, a App, fGHz float64) float64 {
	t.Helper()
	curve, err := vf.CurveFor(tech.Node22)
	if err != nil {
		t.Fatal(err)
	}
	vdd, err := curve.VoltageFor(fGHz)
	if err != nil {
		t.Fatal(err)
	}
	return a.Model22().Power(a.AlphaSingle, vdd, fGHz, 60)
}

func TestFig5PowerAnchor(t *testing.T) {
	// Swaptions is the hungriest app; at 16 nm, 3.6 GHz, 80 °C it should
	// draw ≈3.75 W/core so that a 220 W TDP leaves ≈37–42 % dark silicon.
	s, err := ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.CorePower(tech.Node16, 3.6, 80)
	if err != nil {
		t.Fatal(err)
	}
	if p < 3.5 || p > 4.0 {
		t.Errorf("swaptions @16nm 3.6GHz = %.2f W, want ≈3.75", p)
	}
	// It must be the hungriest in the catalog, and canneal (memory
	// bound) among the two least hungry.
	pw := map[string]float64{}
	for _, a := range Catalog() {
		if pw[a.Name], err = a.CorePower(tech.Node16, 3.6, 80); err != nil {
			t.Fatal(err)
		}
	}
	below := 0
	for name, w := range pw {
		if name != "swaptions" && w >= p {
			t.Errorf("%s draws %.2f W, not below swaptions' %.2f W", name, w, p)
		}
		if w < pw["canneal"] {
			below++
		}
	}
	if below > 1 {
		t.Errorf("canneal should be among the least power hungry; %d apps draw less", below)
	}
}

func TestFig4SpeedupAnchors(t *testing.T) {
	// Figure 4 plots 16–64 threads in a 1–3 speed-up band for x264,
	// bodytrack and canneal.
	for _, name := range []string{"x264", "bodytrack", "canneal"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{16, 32, 48, 64} {
			s := a.Speedup(n)
			if s < 1 || s > 3.5 {
				t.Errorf("%s: S(%d) = %.2f outside Figure 4's band", name, n, s)
			}
		}
		if a.Speedup(64) < a.Speedup(16) {
			t.Errorf("%s: speed-up should not decrease", name)
		}
	}
	// canneal scales worst (Fig. 14's NTC loser).
	c, _ := ByName("canneal")
	x, _ := ByName("x264")
	if c.Speedup(8) >= x.Speedup(8) {
		t.Errorf("canneal should scale worse than x264")
	}
	b, _ := ByName("blackscholes")
	if b.Speedup(8) < 2.8 {
		t.Errorf("blackscholes S(8) = %.2f, want ≥ 2.8", b.Speedup(8))
	}
}

func TestInstanceGIPS(t *testing.T) {
	x, err := ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	if got := x.InstanceGIPS(1.0, 1); math.Abs(got-x.IPC) > 1e-12 {
		t.Errorf("1 thread @1GHz = %v, want IPC", got)
	}
	if x.InstanceGIPS(0, 4) != 0 || x.InstanceGIPS(2, 0) != 0 {
		t.Errorf("degenerate inputs should give 0")
	}
	// 8 threads beat 1 thread at the same frequency.
	if x.InstanceGIPS(3.6, 8) <= x.InstanceGIPS(3.6, 1) {
		t.Errorf("more threads should raise instance GIPS")
	}
}

func TestTLPILPClassification(t *testing.T) {
	cases := []struct {
		name             string
		highTLP, highILP bool
	}{
		{"blackscholes", true, true},
		{"swaptions", true, true},
		{"x264", false, true},
		{"canneal", false, false},
		{"bodytrack", true, false},
	}
	for _, c := range cases {
		a, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if a.HighTLP() != c.highTLP {
			t.Errorf("%s: HighTLP = %v, want %v", c.name, a.HighTLP(), c.highTLP)
		}
		if a.HighILP() != c.highILP {
			t.Errorf("%s: HighILP = %v, want %v", c.name, a.HighILP(), c.highILP)
		}
	}
}

func TestCorePowerScalesDownWithNode(t *testing.T) {
	// At the same frequency, smaller nodes consume less per core
	// (lower Vdd, lower Ceff).
	x, err := ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	p22, err := x.CorePower(tech.Node22, 2.0, 70)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := x.CorePower(tech.Node8, 2.0, 70)
	if err != nil {
		t.Fatal(err)
	}
	if p8 >= p22 {
		t.Errorf("8 nm core at iso-frequency should use less power: %v vs %v", p8, p22)
	}
}

func TestCorePowerErrors(t *testing.T) {
	x, _ := ByName("x264")
	if _, err := x.CorePower(tech.Node(13), 2.0, 70); err != nil {
		// expected
	} else {
		t.Errorf("unknown node should error")
	}
	if _, err := x.CorePower(tech.Node16, -1, 70); err == nil {
		t.Errorf("negative frequency should error")
	}
	if _, err := x.ModelFor(tech.Node(13)); err == nil {
		t.Errorf("unknown node should error")
	}
}

// Property: per-core power is monotone in frequency for every catalog
// application (the Eq.(2) minimum-voltage pairing makes power a cubic-ish
// increasing function of f).
func TestCorePowerMonotoneProperty(t *testing.T) {
	for _, a := range Catalog() {
		f := func(x, y float64) bool {
			f1 := 0.4 + math.Mod(math.Abs(x), 3.2)
			f2 := 0.4 + math.Mod(math.Abs(y), 3.2)
			lo, hi := math.Min(f1, f2), math.Max(f1, f2)
			pLo, err1 := a.CorePower(tech.Node16, lo, 80)
			pHi, err2 := a.CorePower(tech.Node16, hi, 80)
			if err1 != nil || err2 != nil {
				return false
			}
			return pLo <= pHi+1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(23))}); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}
