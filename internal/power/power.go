// Package power implements the per-core power-consumption model of the
// paper's Equation (1):
//
//	P = α · Ceff · Vdd² · f  +  Vdd · Ileak(Vdd, T)  +  Pind
//
// where α is the core's activity factor (utilization), Ceff the effective
// switching capacitance of the running application, Vdd the supply voltage,
// f the clock frequency, Ileak the leakage current (dependent on voltage
// and on the core temperature T) and Pind the frequency-independent power
// of keeping the core in execution mode.
//
// Units: Ceff is carried in nanofarads and f in gigahertz, so the dynamic
// term α·Ceff[nF]·Vdd²·f[GHz] is directly in watts (1 nF · 1 GHz = 1 F/s).
//
// The temperature dependence of leakage couples the power model to the
// thermal model; internal/sim resolves the fixed point by iteration.
package power

import (
	"errors"
	"fmt"
	"math"

	"darksim/internal/linalg"
	"darksim/internal/tech"
)

// Leakage models the leakage current Ileak(Vdd, T). The standard compact
// form is an exponential in both the supply voltage and the temperature:
//
//	Ileak(Vdd, T) = I0 · exp(γv·(Vdd − VddRef)) · exp(γt·(T − TRef))
//
// with I0 the reference current at (VddRef, TRef). The exponential-in-T
// shape is what makes leakage a thermal-runaway concern in the dark-silicon
// literature; γt ≈ 0.01–0.03 /K is typical for the nodes studied.
type Leakage struct {
	I0     float64 // reference leakage current in amperes
	VddRef float64 // reference voltage in volts
	TRef   float64 // reference temperature in °C
	GammaV float64 // voltage sensitivity in 1/V
	GammaT float64 // temperature sensitivity in 1/K
}

// Current returns Ileak(vdd, tempC) in amperes. Power-gated cores
// (vdd == 0) leak nothing.
func (l Leakage) Current(vdd, tempC float64) float64 {
	if vdd <= 0 {
		return 0
	}
	return l.I0 * math.Exp(l.GammaV*(vdd-l.VddRef)) * math.Exp(l.GammaT*(tempC-l.TRef))
}

// Power returns the leakage power Vdd·Ileak(Vdd, T) in watts.
func (l Leakage) Power(vdd, tempC float64) float64 {
	return vdd * l.Current(vdd, tempC)
}

// Scale derives the leakage model for a scaled node: the reference current
// scales with the capacitance factor (a proxy for device width × count at
// constant area utilization) and the reference voltage with the Vdd factor.
func (l Leakage) Scale(f tech.Factors) Leakage {
	out := l
	out.I0 = l.I0 * f.Capacitance * f.Frequency // more, faster transistors per core
	out.VddRef = l.VddRef * f.Vdd
	return out
}

// DefaultLeakage22 is the 22 nm baseline leakage model. The reference
// current is calibrated so leakage contributes roughly 10–20 % of a core's
// total power at the nominal operating point and 80 °C, consistent with the
// McPAT-era breakdowns the paper builds on.
func DefaultLeakage22() Leakage {
	return Leakage{
		I0:     0.9,   // A at (1.0 V, 80 °C)
		VddRef: 1.0,   // V
		TRef:   80.0,  // °C
		GammaV: 2.0,   // /V
		GammaT: 0.018, // /K
	}
}

// CoreModel is the full Equation (1) model for one core running one
// application.
type CoreModel struct {
	CeffNF float64 // effective switching capacitance in nF (application-specific)
	PindW  float64 // frequency-independent power in W
	Leak   Leakage
}

// Dynamic returns the dynamic power α·Ceff·Vdd²·f in watts.
func (m CoreModel) Dynamic(alpha, vdd, fGHz float64) float64 {
	return alpha * m.CeffNF * vdd * vdd * fGHz
}

// Power evaluates Equation (1) in watts. A core with fGHz == 0 and
// vdd == 0 is dark and consumes nothing.
func (m CoreModel) Power(alpha, vdd, fGHz, tempC float64) float64 {
	if vdd <= 0 || fGHz <= 0 {
		return 0
	}
	return m.Dynamic(alpha, vdd, fGHz) + m.Leak.Power(vdd, tempC) + m.PindW
}

// Scale derives the model for a scaled technology node. Ceff scales with
// the capacitance factor; Pind (dominated by always-on logic and clocking)
// scales like dynamic power at the nominal point: Capacitance·Vdd².
func (m CoreModel) Scale(f tech.Factors) CoreModel {
	return CoreModel{
		CeffNF: m.CeffNF * f.Capacitance,
		PindW:  m.PindW * f.Capacitance * f.Vdd * f.Vdd * f.Frequency,
		Leak:   m.Leak.Scale(f),
	}
}

// Sample is one observed operating point, e.g. a row of a McPAT-style
// power trace: the core ran at (FGHz, Vdd), its temperature was TempC, and
// the measured total power was PowerW.
type Sample struct {
	FGHz   float64
	Vdd    float64
	TempC  float64
	PowerW float64
}

// ErrFit is returned when model fitting is ill-posed.
var ErrFit = errors.New("power: cannot fit model")

// Fit estimates CeffNF and PindW from measured samples by linear least
// squares, given a known leakage model and activity factor. This mirrors
// the paper's Figure 3, where Equation (1) is fit to McPAT results for
// every application. At least two samples at distinct (Vdd²·f) points are
// required.
func Fit(samples []Sample, leak Leakage, alpha float64) (CoreModel, error) {
	if len(samples) < 2 {
		return CoreModel{}, fmt.Errorf("%w: need at least 2 samples, got %d", ErrFit, len(samples))
	}
	if alpha <= 0 {
		return CoreModel{}, fmt.Errorf("%w: activity factor must be positive", ErrFit)
	}
	a := linalg.NewMatrix(len(samples), 2)
	b := linalg.NewVector(len(samples))
	xMin, xMax := math.Inf(1), math.Inf(-1)
	for i, s := range samples {
		x := alpha * s.Vdd * s.Vdd * s.FGHz
		xMin, xMax = math.Min(xMin, x), math.Max(xMax, x)
		a.Set(i, 0, x) // coefficient of CeffNF
		a.Set(i, 1, 1) // coefficient of PindW
		b[i] = s.PowerW - leak.Power(s.Vdd, s.TempC)
	}
	if xMax-xMin < 1e-9*(1+math.Abs(xMax)) {
		return CoreModel{}, fmt.Errorf("%w: all samples share the same Vdd²·f point", ErrFit)
	}
	coef, err := linalg.SolveLeastSquares(a, b)
	if err != nil {
		return CoreModel{}, fmt.Errorf("%w: %v", ErrFit, err)
	}
	m := CoreModel{CeffNF: coef[0], PindW: coef[1], Leak: leak}
	if m.CeffNF <= 0 {
		return CoreModel{}, fmt.Errorf("%w: fitted Ceff = %.3g nF is non-physical", ErrFit, m.CeffNF)
	}
	if m.PindW < 0 {
		// Small negative intercepts can arise from noise; clamp at zero
		// rather than failing, matching common practice when regressing
		// simulator output.
		m.PindW = 0
	}
	return m, nil
}
