// Package sim is the transient co-simulation engine behind the paper's §6
// boosting experiments (Figures 11–13) and the policy sandbox: it advances
// the thermal RC model in lockstep with the Equation (1) power model and a
// DVFS controller — exactly the closed-loop Turbo-Boost-style control the
// paper describes (1 ms period, 200 MHz steps, 80 °C threshold).
//
// One engine, RunLanes, does all stepping. Each control period, for every
// lane, it:
//  1. asks the lane's controller for a ladder level per placement given
//     the current peak temperatures (ChipWide turns a chip-wide
//     Controller into one level for every placement),
//  2. re-evaluates every placement's per-core power at that level and at
//     each core's current temperature (leakage is temperature-dependent),
//  3. steps the implicit-Euler transient thermal model, all lanes through
//     one batched solve,
//  4. records performance (GIPS), power and peak temperature.
//
// A DTM guard clamps a lane to the lowest level while its temperature is
// above an emergency threshold (TDTM + 5 °C), mirroring the hardware thermal protection
// the paper's TDTM is defined against. Run and RunBatch are chip-wide
// wrappers over RunLanes.
package sim

import (
	"context"
	"errors"
	"fmt"

	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/metrics"
	"darksim/internal/vf"
)

// Controller chooses the next ladder level each control period.
type Controller interface {
	// Next returns the ladder level index for the coming period, given
	// the current peak core temperature. Implementations own their
	// state (current level, hysteresis, …).
	Next(peakTempC float64) int
	// Current returns the controller's present level without advancing
	// its state; Run uses it to pick the StartSteady operating point.
	Current() int
}

// FixedLevelController marks controllers that are stateless and always
// answer with one level regardless of temperature (the constant-level
// arms of Figures 11–13 and the sandbox's constant policy). ChipWide
// over one is a Holder, so under StepAuto the engine may skip Next calls
// while such a lane holds a snapped steady state; implementations must
// guarantee Next is side-effect-free and constant.
type FixedLevelController interface {
	Controller
	// FixedLevel returns the controller's one level.
	FixedLevel() int
}

// StepMode selects how the engine advances the thermal model.
type StepMode int

const (
	// StepExact advances period by period through the exact implicit-
	// Euler kernel: the historical behaviour, bit-for-bit. It is the
	// default and the reference every StepAuto bound is measured against.
	StepExact StepMode = iota
	// StepAuto lets a quiet lane — a Holder holding its decision on a
	// static plan (ChipWide over a FixedLevelController, or a fixed
	// per-placement assignment), hooked or not — skip the periods it
	// spends on its steady state. Once per recording interval such a lane
	// asks whether its state is within stepAutoSnapTolC of the steady
	// state of its frozen power map, with that steady state a guard band
	// below the DTM emergency threshold. If so it snaps exactly onto it and holds
	// until the next recording point; otherwise it steps exactly to that
	// point. A StepAuto lane is therefore bit for bit its StepExact run up
	// to its first snap; from there on the steady state stands in for
	// the last hundredth of a degree of settling. Recorded series keep
	// their sampling grid, a hook still sees every period, and lanes that
	// are not quiet are StepExact bit for bit.
	StepAuto
)

// stepAutoSnapTolC is the node-space distance (°C) below which a quiet
// lane snaps onto its frozen-power steady state.
const stepAutoSnapTolC = 0.01

// quietDTMGuardC is the safety margin (°C) kept between any snapped
// state and the DTM emergency threshold: a quiet lane whose peak or
// frozen steady state comes within the guard steps exactly, so emergency
// throttling keeps its per-period resolution.
const quietDTMGuardC = 1.0

// ControlPeriodS is the paper's §6 control period, 1 ms: the default
// Options.ControlPeriod and the shortest run anything is asked for.
const ControlPeriodS = 1e-3

// emergencyMarginC puts the DTM hard-throttle threshold this far above
// the platform's TDTM: while a lane's peak temperature exceeds TDTM + 5
// °C its levels are forced to 0. Power is always evaluated busy-wait
// (core.BusyWait).
const emergencyMarginC = 5

// Options configures a transient run.
type Options struct {
	// Duration of the simulated run in seconds. Required.
	Duration float64
	// ControlPeriod in seconds (default ControlPeriodS).
	ControlPeriod float64
	// RecordPoints bounds the stored series length (default 1000).
	RecordPoints int
	// StartSteady initializes the chip at the steady state of the
	// controller's first level rather than a cold (ambient) chip, so
	// short runs measure the sustained regime the paper plots.
	StartSteady bool
	// StepMode selects exact per-period stepping (default) or the
	// steady-state snap for provably quiet lanes.
	StepMode StepMode
}

// Result is the outcome of a transient run.
type Result struct {
	Time     metrics.Series // seconds
	GIPS     metrics.Series // total chip throughput over time
	PeakTemp metrics.Series // °C over time
	PowerW   metrics.Series // total chip power over time
	LevelGHz metrics.Series // highest placement frequency over time

	AvgGIPS    float64
	EnergyJ    float64
	PeakPowerW float64
	MaxTempC   float64
	DTMEvents  int // control periods spent in emergency throttle
}

// ErrRun is returned for invalid run configurations.
var ErrRun = errors.New("sim: invalid run")

// PlanProvider supplies the workload plan as a function of time, enabling
// spatio-temporal mapping: the same instances can migrate across the chip
// mid-run (dark-silicon rotation) while the controller keeps driving the
// shared frequency level.
type PlanProvider interface {
	// PlanAt returns the plan active at simulated time t (seconds). The
	// returned plan may be shared across calls; the engine copies the
	// placements it mutates.
	PlanAt(t float64) *mapping.Plan
}

// StaticPlan adapts a fixed plan to PlanProvider.
type StaticPlan struct{ Plan *mapping.Plan }

// PlanAt implements PlanProvider.
func (s StaticPlan) PlanAt(float64) *mapping.Plan { return s.Plan }

// Run simulates the plan under the controller on the platform's ladder.
// The plan's placements define which cores run which application with how
// many threads; the controller overrides every placement's frequency with
// a single chip-wide level from `ladder` (the paper's §6 experiments drive
// all active cores together). It is a one-lane RunBatch.
func Run(p *core.Platform, plan *mapping.Plan, ctrl Controller, ladder *vf.Ladder, opt Options) (Result, error) {
	res, err := RunBatch(context.TODO(), p, []BatchRun{{Plan: plan, Ctrl: ctrl}}, ladder, opt)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// BatchRun is one lane of RunBatch: a static plan simulated under its
// own controller. Lanes share the platform, ladder and Options.
type BatchRun struct {
	Plan *mapping.Plan
	Ctrl Controller
}

// RunBatch simulates every run as a chip-wide lane of one RunLanes, so
// each control period's thermal solve is shared across lanes. Every
// lane's Result is bit-for-bit identical to Run(p, run.Plan, run.Ctrl,
// ladder, opt), StepMode included; any lane error fails the call.
func RunBatch(ctx context.Context, p *core.Platform, runs []BatchRun, ladder *vf.Ladder, opt Options) ([]Result, error) {
	if ladder == nil {
		return nil, fmt.Errorf("%w: nil argument", ErrRun)
	}
	lanes := make([]*Lane, len(runs))
	for i, r := range runs {
		if r.Plan == nil || r.Ctrl == nil {
			return nil, fmt.Errorf("%w: nil argument in lane %d", ErrRun, i)
		}
		lanes[i] = &Lane{
			Plans:       StaticPlan{Plan: r.Plan},
			Ctrl:        ChipWide(r.Ctrl, ladder, len(r.Plan.Placements)),
			Ladder:      ladder,
			StartSteady: opt.StartSteady,
		}
	}
	if err := RunLanes(ctx, p, lanes, opt); err != nil || len(runs) == 0 {
		return nil, err
	}
	out := make([]Result, len(lanes))
	for i, l := range lanes {
		if l.Err != nil {
			return nil, l.Err
		}
		out[i] = l.Result
	}
	return out, nil
}
