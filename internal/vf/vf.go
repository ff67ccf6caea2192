// Package vf implements the voltage/frequency relation of the paper's
// Equation (2) and the DVFS machinery built on top of it:
//
//	f = k · (Vdd − Vth)² / Vdd
//
// For a given supply voltage there is a maximum stable frequency; running
// at any higher voltage for the same frequency wastes power, so the paper
// (and this package) always pairs a frequency with the minimum voltage that
// sustains it. Substituting that pairing into the dynamic-power term of
// Equation (1) yields the cubic frequency/dynamic-power relation the paper
// refers to.
//
// The package also provides per-node DVFS ladders (0.2 GHz steps, matching
// the boosting controller of §6) and the STC/NTC/Boost region
// classification of Figure 2.
package vf

import (
	"errors"
	"fmt"
	"math"

	"darksim/internal/tech"
)

// Curve is the V/f relation of Eq.(2) for one technology node.
type Curve struct {
	// K is the fitting factor in GHz·V.
	K float64
	// Vth is the threshold voltage in volts.
	Vth float64
	// VddNominal is the nominal supply voltage; frequencies above the
	// nominal point require boost voltages.
	VddNominal float64
	// FmaxGHz is the maximum nominal (non-boost) frequency in GHz,
	// reached exactly at VddNominal.
	FmaxGHz float64
}

// CurveFor builds the Eq.(2) curve for a technology node.
func CurveFor(n tech.Node) (Curve, error) {
	s, err := tech.SpecFor(n)
	if err != nil {
		return Curve{}, err
	}
	return Curve{K: s.K, Vth: s.Vth, VddNominal: s.VddNominal, FmaxGHz: s.FmaxGHz}, nil
}

// MustCurve is CurveFor but panics on unknown nodes; for tables and tests.
func MustCurve(n tech.Node) Curve {
	c, err := CurveFor(n)
	if err != nil {
		panic(err)
	}
	return c
}

// ErrInfeasible is returned when no voltage in the supported range can
// sustain a requested frequency.
var ErrInfeasible = errors.New("vf: requested frequency is not achievable")

// FrequencyGHz evaluates Eq.(2): the maximum stable frequency in GHz at
// supply voltage vdd. Voltages at or below Vth yield 0 (no switching).
func (c Curve) FrequencyGHz(vdd float64) float64 {
	if vdd <= c.Vth {
		return 0
	}
	dv := vdd - c.Vth
	return c.K * dv * dv / vdd
}

// VoltageFor inverts Eq.(2): the minimum supply voltage that sustains
// fGHz. Solving f·V = k·(V−Vth)² for V gives a quadratic in V:
//
//	k·V² − (2·k·Vth + f)·V + k·Vth² = 0
//
// whose larger root is the operating voltage (the smaller root lies below
// Vth and is non-physical). fGHz must be positive.
func (c Curve) VoltageFor(fGHz float64) (float64, error) {
	if fGHz <= 0 || math.IsNaN(fGHz) || math.IsInf(fGHz, 1) {
		return 0, fmt.Errorf("vf: VoltageFor(%g GHz): frequency must be positive and finite", fGHz)
	}
	a := c.K
	b := -(2*c.K*c.Vth + fGHz)
	cc := c.K * c.Vth * c.Vth
	disc := b*b - 4*a*cc
	if disc < 0 {
		return 0, fmt.Errorf("%w: %g GHz (negative discriminant)", ErrInfeasible, fGHz)
	}
	v := (-b + math.Sqrt(disc)) / (2 * a)
	if v <= c.Vth {
		return 0, fmt.Errorf("%w: %g GHz (root %.3f V below Vth)", ErrInfeasible, fGHz, v)
	}
	return v, nil
}

// Region classifies an operating voltage per Figure 2.
type Region int

const (
	// RegionNTC is near-threshold computing: Vdd below the STC floor.
	RegionNTC Region = iota
	// RegionSTC is the conventional super-threshold region, up to and
	// including the nominal voltage.
	RegionSTC
	// RegionBoost is above-nominal voltage (turbo operation).
	RegionBoost
)

// STCFloorVolts is the conventional lower bound of the super-threshold
// region; the paper notes "Vdd usually takes values above 0.6 V" for STC.
const STCFloorVolts = 0.6

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionNTC:
		return "NTC"
	case RegionSTC:
		return "STC"
	case RegionBoost:
		return "Boost"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// RegionOf classifies the supply voltage vdd.
func (c Curve) RegionOf(vdd float64) Region {
	switch {
	case vdd < STCFloorVolts:
		return RegionNTC
	case vdd <= c.VddNominal+1e-12:
		return RegionSTC
	default:
		return RegionBoost
	}
}

// OperatingPoint is a (frequency, minimum voltage) pair on the Eq.(2)
// curve, tagged with its region.
type OperatingPoint struct {
	FGHz   float64
	Vdd    float64
	Region Region
}

// PointAt returns the operating point for frequency fGHz.
func (c Curve) PointAt(fGHz float64) (OperatingPoint, error) {
	v, err := c.VoltageFor(fGHz)
	if err != nil {
		return OperatingPoint{}, err
	}
	return OperatingPoint{FGHz: fGHz, Vdd: v, Region: c.RegionOf(v)}, nil
}

// StepGHz is the DVFS / boosting frequency granularity used throughout the
// paper (§6: "the frequency on all cores is increased or decreased one
// step (200 MHz)").
const StepGHz = 0.2

// Ladder is an ascending list of discrete operating points.
type Ladder struct {
	Curve  Curve
	Points []OperatingPoint
}

// ladderMinGHz is the lowest level of every ladder.
const ladderMinGHz = 0.4

// LadderOptions configures ladder generation; every ladder starts at
// 0.4 GHz.
type LadderOptions struct {
	// MaxGHz is the highest level; defaults to the curve's FmaxGHz.
	// Set above FmaxGHz to include boost levels.
	MaxGHz float64
	// StepGHz defaults to StepGHz (0.2).
	StepGHz float64
}

// NewLadder builds the discrete DVFS ladder for the curve. Levels whose
// voltage solve fails are skipped (cannot happen for positive frequencies,
// but kept defensive).
func NewLadder(c Curve, opt LadderOptions) (*Ladder, error) {
	if opt.MaxGHz == 0 {
		opt.MaxGHz = c.FmaxGHz
	}
	if opt.StepGHz == 0 {
		opt.StepGHz = StepGHz
	}
	if opt.StepGHz <= 0 || opt.MaxGHz < ladderMinGHz {
		return nil, fmt.Errorf("vf: invalid ladder options %+v", opt)
	}
	var pts []OperatingPoint
	// Walk in integer steps to avoid floating-point drift in the level
	// values (2.8000000003 GHz would make table output ugly).
	n := int(math.Round((opt.MaxGHz - ladderMinGHz) / opt.StepGHz))
	for i := 0; i <= n; i++ {
		f := ladderMinGHz + float64(i)*opt.StepGHz
		f = math.Round(f*1000) / 1000
		if f > opt.MaxGHz+1e-9 {
			break
		}
		p, err := c.PointAt(f)
		if err != nil {
			continue
		}
		pts = append(pts, p)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("vf: empty ladder for options %+v", opt)
	}
	return &Ladder{Curve: c, Points: pts}, nil
}

// Levels returns the ladder's frequencies in GHz, ascending.
func (l *Ladder) Levels() []float64 {
	fs := make([]float64, len(l.Points))
	for i, p := range l.Points {
		fs[i] = p.FGHz
	}
	return fs
}

// Nearest returns the index of the ladder level closest to fGHz.
func (l *Ladder) Nearest(fGHz float64) int {
	best, bd := 0, math.Inf(1)
	for i, p := range l.Points {
		if d := math.Abs(p.FGHz - fGHz); d < bd {
			best, bd = i, d
		}
	}
	return best
}

// AtOrBelow returns the index of the highest level with frequency ≤ fGHz,
// or -1 when even the lowest level exceeds fGHz.
func (l *Ladder) AtOrBelow(fGHz float64) int {
	idx := -1
	for i, p := range l.Points {
		if p.FGHz <= fGHz+1e-9 {
			idx = i
		}
	}
	return idx
}

// Clamp returns i clamped to the valid level-index range.
func (l *Ladder) Clamp(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(l.Points) {
		return len(l.Points) - 1
	}
	return i
}
