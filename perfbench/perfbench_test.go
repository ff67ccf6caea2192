package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.25, 1.75}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "a", Start: 3, End: 6},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 8, End: 12}, // runs past its parent
	}}
	self := map[string]float64{}
	for _, st := range tr.stats() {
		self[st.Name] = st.SelfMS
	}
	// root: 10 − [1,6] − [8,10] = 3.
	if self["root"] != 3 || self["a"] != 6 || self["b"] != 4 {
		t.Errorf("self times %v, want root 3, a 6, b 4", self)
	}
}

func TestCellTolerance(t *testing.T) {
	for _, c := range []struct {
		got, want string
		ok        bool
	}{
		{"1.000", "1.001", true}, // within rel 2e-3
		{"1.000", "1.010", false},
		{"37%", "37.05%", true},
		{"2.17x", "2.17x", true},
		{"x264", "x265", false},
	} {
		if cellClose(c.got, c.want, 1e-6, 2e-3) != c.ok {
			t.Errorf("cellClose(%q, %q) = %v", c.got, c.want, !c.ok)
		}
	}
	if !textClose("max dark silicon: 37.0%", "max dark silicon: 37.01%", 1e-6, 2e-3) {
		t.Error("textClose rejects a note within tolerance")
	}
}

func TestPassOrderPlacesHeavyFigures(t *testing.T) {
	jobs, err := loadFigureJobs()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range heavySlots {
		order := passOrder(rng, jobs, i)
		if len(order) != len(jobs) {
			t.Fatalf("pass %d: %d jobs, want %d", i, len(order), len(jobs))
		}
		seen := map[string]bool{}
		for pos, j := range order {
			seen[j.exp.ID] = true
			heavy := j.exp.ID == "fig12" || j.exp.ID == "fig13"
			if heavy != (pos == heavySlots[i][0] || pos == heavySlots[i][1]) {
				t.Errorf("pass %d: %s at position %d", i, j.exp.ID, pos)
			}
		}
		if len(seen) != len(jobs) {
			t.Errorf("pass %d: %d distinct figures, want %d", i, len(seen), len(jobs))
		}
	}
}

func TestQueryPassMixIsFixed(t *testing.T) {
	g := newQueryGen(rand.New(rand.NewPCG(7, 8)))
	seen := map[platformKey]bool{}
	for _, k := range warmPlatforms {
		seen[k] = true
	}
	for pass := range 3 {
		var pairs, fresh, repeats int
		for _, q := range g.pass() {
			switch {
			case q.pair:
				pairs++
			case q.fresh:
				fresh++
				k := platformKey{q.node, q.cores}
				if seen[k] {
					t.Errorf("pass %d: never-seen platform %v was seen", pass, k)
				}
				seen[k] = true
			case q.repeat:
				repeats++
			}
		}
		// The first pass has no earlier key to repeat at its start.
		if pairs != 12 || fresh != 1 || (pass > 0 && repeats != 77) {
			t.Errorf("pass %d: pairs %d fresh %d repeats %d, want 12, 1, 77", pass, pairs, fresh, repeats)
		}
	}
}

func TestSandboxPassSlots(t *testing.T) {
	g := newSpecGen(rand.New(rand.NewPCG(3, 4)))
	for pass := range 3 {
		specs := g.pass()
		if len(specs) != len(passSlots) {
			t.Fatalf("pass %d: %d specs, want %d", pass, len(specs), len(passSlots))
		}
		repeats, tuned := 0, 0
		for _, rs := range specs {
			if rs.repeat {
				repeats++
			}
			if rs.spec.Tune != "" {
				tuned++
			}
			control := false
			for _, pc := range rs.spec.Policies {
				control = control || pc.Name == negativeControl
			}
			if n := len(rs.spec.Policies); !control || n < 3 || n > 6 {
				t.Errorf("pass %d: %s: %d policies, control %v", pass, rs.label, n, control)
			}
		}
		if tuned != 3 || (pass > 0 && repeats != specRepeats) {
			t.Errorf("pass %d: %d tuned, %d repeats", pass, tuned, repeats)
		}
	}
}
