// Package trace is the synthetic stand-in for the paper's gem5 + McPAT
// characterization runs. The paper's tool flow (Figure 1) simulates each
// PARSEC application at 22 nm, producing performance and power traces that
// are then reduced to the Equation (1) power model. We have no gem5 or
// McPAT, so this package *generates* traces from the catalog's ground-truth
// models, perturbed with deterministic, reproducible measurement noise, and
// the rest of the pipeline fits Equation (1) back from them — exercising
// the same fit-then-scale code path as the paper without the external
// simulators.
//
// Determinism matters: the same (application, seed) always produces the
// same trace, so experiments and tests are reproducible.
package trace

import (
	"math/rand"

	"darksim/internal/apps"
	"darksim/internal/power"
	"darksim/internal/tech"
	"darksim/internal/vf"
)

// Row is one record of a synthetic gem5/McPAT run: the application ran at
// one operating point and the "simulator" reported power and throughput.
type Row struct {
	FGHz   float64
	Vdd    float64
	TempC  float64
	PowerW float64 // McPAT-style total core power
	GIPS   float64 // gem5-style throughput for a single thread
}

// The sweep behind every trace: single-thread samples from minGHz to
// maxGHz in stepGHz steps, taken at tempC with a relative 1-sigma
// measurement noise of noiseFrac.
const (
	minGHz, maxGHz, stepGHz = 0.4, 4.0, 0.2
	tempC                   = 60
	noiseFrac               = 0.02
)

// Generate produces the single-thread 22 nm trace for an application,
// mirroring the measurements behind the paper's Figure 3. The seed
// selects the deterministic noise stream.
func Generate(app apps.App, seed int64) ([]Row, error) {
	curve, err := vf.CurveFor(tech.Node22)
	if err != nil {
		return nil, err
	}
	model := app.Model22()
	rng := rand.New(rand.NewSource(seed ^ int64(len(app.Name))<<32))
	var rows []Row
	for f := minGHz; f <= maxGHz+1e-9; f += stepGHz {
		vdd, err := curve.VoltageFor(f)
		if err != nil {
			return nil, err
		}
		truth := model.Power(app.AlphaSingle, vdd, f, tempC)
		noisy := truth * (1 + noiseFrac*rng.NormFloat64())
		if noisy < 0 {
			noisy = 0
		}
		rows = append(rows, Row{
			FGHz:   f,
			Vdd:    vdd,
			TempC:  tempC,
			PowerW: noisy,
			GIPS:   app.IPC * f,
		})
	}
	return rows, nil
}

// FitModel reduces a trace back to an Equation (1) model, exactly as the
// paper's flow fits its simulation results (Figure 3). The application's
// single-thread activity factor and the baseline leakage model are assumed
// known from the characterization setup.
func FitModel(rows []Row, alphaSingle float64) (power.CoreModel, error) {
	samples := make([]power.Sample, len(rows))
	for i, r := range rows {
		samples[i] = power.Sample{FGHz: r.FGHz, Vdd: r.Vdd, TempC: r.TempC, PowerW: r.PowerW}
	}
	return power.Fit(samples, power.DefaultLeakage22(), alphaSingle)
}
