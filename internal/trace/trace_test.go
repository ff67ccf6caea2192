package trace

import (
	"math"
	"testing"

	"darksim/internal/apps"
)

func TestGenerateDeterministic(t *testing.T) {
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(x, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(x, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Different seeds differ.
	c, err := Generate(x, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].PowerW != c[i].PowerW {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds should produce different noise")
	}
}

func TestGenerateShape(t *testing.T) {
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Generate(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 0.4..4.0 in 0.2 steps = 19 rows.
	if len(rows) != 19 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Power and GIPS are monotone in frequency.
	for i := 1; i < len(rows); i++ {
		if rows[i].PowerW <= rows[i-1].PowerW {
			t.Fatalf("power not monotone at %d", i)
		}
		if rows[i].GIPS <= rows[i-1].GIPS {
			t.Fatalf("gips not monotone at %d", i)
		}
		if rows[i].Vdd <= rows[i-1].Vdd {
			t.Fatalf("vdd not monotone at %d", i)
		}
	}
}

func TestFitModelRoundTrip(t *testing.T) {
	// The fit-from-trace must recover the catalog's ground truth to a few
	// per cent — this is the paper's "model fits the simulation" claim
	// (Figure 3) in test form.
	for _, a := range apps.Catalog() {
		name := a.Name
		rows, err := Generate(a, 7)
		if err != nil {
			t.Fatal(err)
		}
		fit, err := FitModel(rows, a.AlphaSingle)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		truth := a.Model22()
		if rel := math.Abs(fit.CeffNF-truth.CeffNF) / truth.CeffNF; rel > 0.05 {
			t.Errorf("%s: fitted Ceff %.3f vs truth %.3f (%.1f%% off)",
				name, fit.CeffNF, truth.CeffNF, rel*100)
		}
	}
}
