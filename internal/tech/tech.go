// Package tech models the technology nodes considered by the paper
// (22, 16, 11 and 8 nm) and the ITRS-derived scaling factors of Figure 1.
//
// All factors are expressed relative to the 22 nm baseline, exactly as in
// the paper's table:
//
//	Technology  Vdd   Frequency  Capacitance  Area
//	22 nm       1.00  1.00       1.00         1.00
//	16 nm       0.89  1.35       0.64         0.53
//	11 nm       0.81  1.75       0.39         0.28
//	 8 nm       0.74  2.30       0.24         0.15
//
// The 22 nm baseline is characterised by gem5/McPAT in the paper; here the
// baseline constants (core area 9.6 mm², nominal Vdd 1.0 V, Eq.(2) fitting
// factor k = 3.7, Vth = 178 mV) are encoded directly and the other nodes
// are derived by applying the factors.
package tech

import (
	"fmt"
	"sort"
)

// Node identifies a technology node by its feature size in nanometres.
type Node int

// The four nodes studied by the paper.
const (
	Node22 Node = 22
	Node16 Node = 16
	Node11 Node = 11
	Node8  Node = 8
)

// String implements fmt.Stringer.
func (n Node) String() string { return fmt.Sprintf("%dnm", int(n)) }

// Factors holds scaling factors relative to the 22 nm baseline.
type Factors struct {
	Vdd         float64 // supply voltage factor
	Frequency   float64 // maximum stable frequency factor
	Capacitance float64 // effective switching capacitance factor
	Area        float64 // core area factor
}

// factorTable is the table of Figure 1 (factors w.r.t. 22 nm).
var factorTable = map[Node]Factors{
	Node22: {Vdd: 1.00, Frequency: 1.00, Capacitance: 1.00, Area: 1.00},
	Node16: {Vdd: 0.89, Frequency: 1.35, Capacitance: 0.64, Area: 0.53},
	Node11: {Vdd: 0.81, Frequency: 1.75, Capacitance: 0.39, Area: 0.28},
	Node8:  {Vdd: 0.74, Frequency: 2.30, Capacitance: 0.24, Area: 0.15},
}

// Baseline constants for the 22 nm node, from §2.1–2.2 of the paper.
const (
	// BaselineCoreAreaMM2 is the area of one out-of-order Alpha 21264
	// core at 22 nm according to the paper's McPAT runs.
	BaselineCoreAreaMM2 = 9.6
	// BaselineVdd is the nominal supply voltage at 22 nm in volts.
	BaselineVdd = 1.00
	// BaselineVth is the threshold voltage at 22 nm in volts (178 mV).
	BaselineVth = 0.178
	// BaselineK is the Eq.(2) fitting factor k at 22 nm in GHz·V
	// (modelled from Grenat et al., ISSCC'14, as cited by the paper).
	BaselineK = 3.7
)

// nominalFmaxGHz is the maximum nominal frequency per node in GHz, as used
// throughout the paper's experiments (§3.1 names 3.6 GHz for 16 nm, §3.2
// names 4 GHz for 11 nm and 4.4 GHz for 8 nm). The 22 nm value follows from
// Eq.(2) at the nominal Vdd: f = 3.7·(1−0.178)²/1 ≈ 2.5 GHz, rounded to the
// paper's 0.2 GHz DVFS granularity.
var nominalFmaxGHz = map[Node]float64{
	Node22: 2.6,
	Node16: 3.6,
	Node11: 4.0,
	Node8:  4.4,
}

// ErrUnknownNode is returned for nodes outside the paper's set.
type ErrUnknownNode struct{ Node Node }

func (e ErrUnknownNode) Error() string {
	return fmt.Sprintf("tech: unknown technology node %d nm (supported: 22, 16, 11, 8)", int(e.Node))
}

// FactorsFor returns the Figure 1 scaling factors for node n.
func FactorsFor(n Node) (Factors, error) {
	f, ok := factorTable[n]
	if !ok {
		return Factors{}, ErrUnknownNode{Node: n}
	}
	return f, nil
}

// Nodes returns the supported nodes in descending feature size
// (22, 16, 11, 8).
func Nodes() []Node {
	ns := make([]Node, 0, len(factorTable))
	for n := range factorTable {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] > ns[j] })
	return ns
}

// Spec is the fully derived characterization of one technology node.
type Spec struct {
	Node        Node
	Factors     Factors
	CoreAreaMM2 float64 // per-core area in mm²
	VddNominal  float64 // nominal supply voltage in V
	Vth         float64 // threshold voltage in V
	// K is the Eq.(2) fitting factor in GHz·V, calibrated per node so
	// that Eq.(2) yields FmaxGHz at VddNominal. This keeps the V/f curve
	// anchored to the paper's nominal operating points while preserving
	// its analytic shape.
	K       float64
	FmaxGHz float64 // maximum nominal (non-boost) frequency in GHz
}

// SpecFor derives the full Spec for node n.
func SpecFor(n Node) (Spec, error) {
	f, err := FactorsFor(n)
	if err != nil {
		return Spec{}, err
	}
	fmax := nominalFmaxGHz[n]
	vdd := BaselineVdd * f.Vdd
	// Invert Eq.(2) for k: f = k (V-Vth)²/V  ⇒  k = f·V/(V-Vth)².
	dv := vdd - BaselineVth
	k := fmax * vdd / (dv * dv)
	return Spec{
		Node:        n,
		Factors:     f,
		CoreAreaMM2: BaselineCoreAreaMM2 * f.Area,
		VddNominal:  vdd,
		Vth:         BaselineVth,
		K:           k,
		FmaxGHz:     fmax,
	}, nil
}
