package tech

import (
	"errors"
	"math"
	"testing"
)

func TestFactorsForKnownNodes(t *testing.T) {
	cases := []struct {
		node Node
		want Factors
	}{
		{Node22, Factors{1.00, 1.00, 1.00, 1.00}},
		{Node16, Factors{0.89, 1.35, 0.64, 0.53}},
		{Node11, Factors{0.81, 1.75, 0.39, 0.28}},
		{Node8, Factors{0.74, 2.30, 0.24, 0.15}},
	}
	for _, c := range cases {
		got, err := FactorsFor(c.node)
		if err != nil {
			t.Fatalf("%v: %v", c.node, err)
		}
		if got != c.want {
			t.Errorf("%v: factors = %+v, want %+v", c.node, got, c.want)
		}
	}
}

func TestFactorsForUnknownNode(t *testing.T) {
	_, err := FactorsFor(Node(14))
	if err == nil {
		t.Fatalf("expected error for 14 nm")
	}
	var unk ErrUnknownNode
	if !errors.As(err, &unk) || unk.Node != 14 {
		t.Errorf("error = %v, want ErrUnknownNode{14}", err)
	}
}

func TestNodesOrder(t *testing.T) {
	ns := Nodes()
	want := []Node{Node22, Node16, Node11, Node8}
	if len(ns) != len(want) {
		t.Fatalf("Nodes() = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Errorf("Nodes()[%d] = %v, want %v", i, ns[i], want[i])
		}
	}
}

func mustSpec(t *testing.T, n Node) Spec {
	t.Helper()
	s, err := SpecFor(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCoreAreasMatchPaper(t *testing.T) {
	// §2.1: "we obtain the following core areas: 5.1 mm², 2.7 mm², and
	// 1.4 mm² for 16 nm, 11 nm and 8 nm" (from 9.6 mm² at 22 nm).
	cases := []struct {
		node Node
		want float64
	}{
		{Node22, 9.6},
		{Node16, 5.1},
		{Node11, 2.7},
		{Node8, 1.4},
	}
	for _, c := range cases {
		s := mustSpec(t, c.node)
		if math.Abs(s.CoreAreaMM2-c.want) > 0.06 {
			t.Errorf("%v: core area = %.2f mm², want ≈%.1f", c.node, s.CoreAreaMM2, c.want)
		}
	}
}

func TestSpecNominalPoints(t *testing.T) {
	for _, n := range Nodes() {
		s := mustSpec(t, n)
		if s.Vth != BaselineVth {
			t.Errorf("%v: Vth = %v", n, s.Vth)
		}
		// Eq.(2) at nominal Vdd must reproduce FmaxGHz by construction.
		dv := s.VddNominal - s.Vth
		f := s.K * dv * dv / s.VddNominal
		if math.Abs(f-s.FmaxGHz) > 1e-9 {
			t.Errorf("%v: Eq2(VddNominal) = %v GHz, want %v", n, f, s.FmaxGHz)
		}
	}
	// 22 nm K should be close to the paper's literal k = 3.7.
	s22 := mustSpec(t, Node22)
	if math.Abs(s22.K-BaselineK) > 0.2 {
		t.Errorf("22nm K = %v, want ≈3.7", s22.K)
	}
	// Nominal frequencies per the paper's experiments.
	if mustSpec(t, Node16).FmaxGHz != 3.6 || mustSpec(t, Node11).FmaxGHz != 4.0 || mustSpec(t, Node8).FmaxGHz != 4.4 {
		t.Errorf("nominal fmax values drifted from the paper")
	}
}

func TestSpecForUnknown(t *testing.T) {
	if _, err := SpecFor(Node(7)); err == nil {
		t.Fatalf("expected error")
	}
}

func TestPowerDensityIncreasesWithScaling(t *testing.T) {
	// The motivation of the dark-silicon problem: power density
	// (power factor / area factor) grows monotonically as we scale down.
	prev := 0.0
	for _, n := range Nodes() {
		f, err := FactorsFor(n)
		if err != nil {
			t.Fatal(err)
		}
		// Dynamic power α·C·Vdd²·f scales by C·Vdd²·f.
		density := f.Capacitance * f.Vdd * f.Vdd * f.Frequency / f.Area
		if density < prev {
			t.Errorf("%v: power density factor %.3f decreased (prev %.3f)", n, density, prev)
		}
		prev = density
	}
}

func TestNodeString(t *testing.T) {
	if Node16.String() != "16nm" {
		t.Errorf("String = %q", Node16.String())
	}
}
