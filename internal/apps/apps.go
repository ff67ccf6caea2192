// Package apps provides the PARSEC-like application catalog the paper's
// experiments run: x264, blackscholes, bodytrack, canneal, dedup, ferret
// and swaptions (§2.3, Figures 3–14).
//
// The paper characterizes each application at 22 nm with gem5 + McPAT and
// then reduces those simulations to the Equation (1) power model and an
// Amdahl-style speed-up curve. This package plays the role of that
// characterization: each App carries the fitted model constants
// (per-thread IPC, Amdahl parallel fraction, effective switching
// capacitance at 22 nm, activity factor, frequency-independent power).
// The constants are synthetic but calibrated against the paper's published
// anchors:
//
//   - x264 single-threaded at 22 nm draws ≈15 W at 4 GHz (Figure 3);
//   - the hungriest application (swaptions) draws ≈3.75 W/core at 16 nm and
//     3.6 GHz, so a 220 W TDP leaves ≈37–42 % of a 100-core chip dark and a
//     185 W TDP ≈46–51 % (Figure 5);
//   - speed-ups for 8 dependent threads land between ≈1.4 (canneal) and
//     ≈3.2 (blackscholes), reproducing the parallelism wall of Figure 4;
//   - canneal scales poorly with threads, which is what makes NTC lose on
//     energy for it in Figure 14.
package apps

import (
	"errors"
	"fmt"

	"darksim/internal/amdahl"
	"darksim/internal/power"
	"darksim/internal/tech"
	"darksim/internal/vf"
)

// App is one benchmark application with its fitted model constants.
type App struct {
	Name string
	// IPC is the per-thread instructions per cycle on the out-of-order
	// Alpha 21264 core (the ILP axis of §3.3).
	IPC float64
	// ParallelFrac is the Amdahl parallel fraction (the TLP axis).
	ParallelFrac float64
	// Ceff22NF is the effective switching capacitance at 22 nm in nF.
	Ceff22NF float64
	// Alpha is the per-core activity factor when running as one of
	// several dependent threads (sync stalls reduce it).
	Alpha float64
	// AlphaSingle is the single-thread activity factor (no sync stalls).
	AlphaSingle float64
	// Pind22W is the frequency-independent power at 22 nm in watts.
	Pind22W float64
}

// MaxThreadsPerInstance is the paper's per-instance thread limit (§2.3:
// "every instance of an application can run 1, 2, …, 8 parallel dependent
// threads").
const MaxThreadsPerInstance = 8

// Catalog returns the seven PARSEC applications in the paper's figure
// order (a–g): x264, blackscholes, bodytrack, ferret, canneal, dedup,
// swaptions.
func Catalog() []App {
	return []App{
		{Name: "x264", IPC: 2.6, ParallelFrac: 0.62, Ceff22NF: 1.85, Alpha: 0.80, AlphaSingle: 0.90, Pind22W: 0.3},
		{Name: "blackscholes", IPC: 2.2, ParallelFrac: 0.78, Ceff22NF: 0.98, Alpha: 0.90, AlphaSingle: 0.95, Pind22W: 0.3},
		{Name: "bodytrack", IPC: 1.8, ParallelFrac: 0.70, Ceff22NF: 1.44, Alpha: 0.80, AlphaSingle: 0.88, Pind22W: 0.3},
		{Name: "ferret", IPC: 1.7, ParallelFrac: 0.72, Ceff22NF: 1.55, Alpha: 0.85, AlphaSingle: 0.92, Pind22W: 0.3},
		{Name: "canneal", IPC: 0.9, ParallelFrac: 0.35, Ceff22NF: 1.28, Alpha: 0.60, AlphaSingle: 0.70, Pind22W: 0.3},
		{Name: "dedup", IPC: 1.5, ParallelFrac: 0.66, Ceff22NF: 1.39, Alpha: 0.75, AlphaSingle: 0.85, Pind22W: 0.3},
		{Name: "swaptions", IPC: 2.0, ParallelFrac: 0.75, Ceff22NF: 1.65, Alpha: 0.95, AlphaSingle: 0.97, Pind22W: 0.3},
	}
}

// ErrUnknownApp is returned by ByName for applications outside the catalog.
var ErrUnknownApp = errors.New("apps: unknown application")

// ByName looks an application up by its (lower-case) name.
func ByName(name string) (App, error) {
	for _, a := range Catalog() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("%w: %q", ErrUnknownApp, name)
}

// SpeedupLaw returns the application's Amdahl law.
func (a App) SpeedupLaw() amdahl.Amdahl {
	return amdahl.Amdahl{ParallelFrac: a.ParallelFrac}
}

// Speedup returns the application's speed-up for n dependent threads.
func (a App) Speedup(n int) float64 { return a.SpeedupLaw().Speedup(n) }

// Model22 returns the Equation (1) model at 22 nm.
func (a App) Model22() power.CoreModel {
	return power.CoreModel{CeffNF: a.Ceff22NF, PindW: a.Pind22W, Leak: power.DefaultLeakage22()}
}

// ModelFor returns the Equation (1) model scaled to the given node.
func (a App) ModelFor(node tech.Node) (power.CoreModel, error) {
	f, err := tech.FactorsFor(node)
	if err != nil {
		return power.CoreModel{}, err
	}
	return a.Model22().Scale(f), nil
}

// CorePower returns the per-core power in watts when one thread of a
// multi-threaded instance of the application runs at fGHz (with the
// minimum Eq.(2) voltage) and temperature tempC on the given node.
func (a App) CorePower(node tech.Node, fGHz, tempC float64) (float64, error) {
	m, err := a.ModelFor(node)
	if err != nil {
		return 0, err
	}
	curve, err := vf.CurveFor(node)
	if err != nil {
		return 0, err
	}
	vdd, err := curve.VoltageFor(fGHz)
	if err != nil {
		return 0, err
	}
	return m.Power(a.Alpha, vdd, fGHz, tempC), nil
}

// InstanceGIPS returns the throughput of one application instance running
// `threads` dependent threads at fGHz, in giga-instructions per second:
// IPC · f · S(threads). A single thread at 1 GHz retires IPC GIPS.
func (a App) InstanceGIPS(fGHz float64, threads int) float64 {
	if threads < 1 || fGHz <= 0 {
		return 0
	}
	return a.IPC * fGHz * a.Speedup(threads)
}

// HighTLPThreshold and HighILPThreshold classify applications per §3.3.
const (
	HighTLPThreshold = 0.70 // parallel fraction
	HighILPThreshold = 2.0  // IPC
)

// HighTLP reports whether the application benefits more from added threads
// than from added frequency.
func (a App) HighTLP() bool { return a.ParallelFrac >= HighTLPThreshold }

// HighILP reports whether the application benefits strongly from higher
// v/f levels.
func (a App) HighILP() bool { return a.IPC >= HighILPThreshold }
