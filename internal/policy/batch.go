package policy

import (
	"context"
	"errors"
	"fmt"

	"darksim/internal/sim"
)

// packLane is one policy's lane in a lockstep race: the engine lane plus
// the trace its hook records.
type packLane struct {
	sim.Lane
	out         *Outcome
	prep        *Prepared
	tspByActive map[int]float64
	activeSum   int

	// Per-run arenas for the trace's per-step slices: one backing array
	// per field instead of one allocation per step per field.
	levelsBuf []int
	gatedBuf  []bool
	wBuf      []float64
}

// race prepares one lane per policy and races them in lockstep through
// sim.RunLanes, the engine the boosting figures run on, under
// sim.StepAuto: a lane that holds one decision (constant, tdpmap,
// patterned, dsrem) and sits on its steady state snaps there instead of
// re-solving it every period, while its hook still records every period
// of the trace; the closed loops step exactly. Policy-level
// failures (preparation, an invalid plan or decision, a failed TSP
// lookup) retire their lane into its Outcome; only infrastructure errors
// (bad options, context cancellation) abort the race. Outcomes come back
// in input order, assertions not yet checked.
func (e *Env) race(ctx context.Context, pols []Policy, opt Options) ([]*packLane, error) {
	p := e.Platform
	if opt.Duration == 0 {
		opt.Duration = 0.5
	}
	if !(opt.Duration >= sim.ControlPeriodS) {
		return nil, fmt.Errorf("%w: duration %g s, control period %g s", ErrPolicy, opt.Duration, sim.ControlPeriodS)
	}
	steps := int(opt.Duration/sim.ControlPeriodS + 0.5)
	packs := make([]*packLane, len(pols))
	var lanes []*sim.Lane
	for i, pol := range pols {
		pl := &packLane{out: &Outcome{Policy: pol.Name(), Info: pol.Info()}}
		packs[i] = pl
		prep, err := pol.Prepare(ctx, e)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			pl.out.Err = err.Error()
			continue
		}
		pl.prep = prep
		pl.tspByActive = make(map[int]float64, 2)
		pl.Lane = sim.Lane{
			Plans:       sim.StaticPlan{Plan: prep.Plan},
			Ctrl:        prep.Ctrl,
			Ladder:      prep.Ladder,
			StartSteady: prep.StartSteady,
			Hook:        e.recorder(ctx, pl, steps),
		}
		lanes = append(lanes, &pl.Lane)
	}
	// One recorded sample is enough: the trace, not the series, is the
	// sandbox's record.
	if err := sim.RunLanes(ctx, p, lanes, sim.Options{
		Duration:      opt.Duration,
		ControlPeriod: sim.ControlPeriodS,
		RecordPoints:  1,
		StepMode:      sim.StepAuto,
	}); err != nil {
		return nil, err
	}
	for _, pl := range packs {
		if pl.prep != nil {
			pl.finish(opt, steps, p.NumCores())
		}
	}
	return packs, nil
}

// recorder is a lane's hook: it looks up the period's TSP budget and
// appends the period to the lane's trace.
func (e *Env) recorder(ctx context.Context, pl *packLane, steps int) func(*sim.Period) error {
	return func(pd *sim.Period) error {
		tspW, err := e.tspFor(ctx, pd.ActiveCores, pl.tspByActive)
		if err != nil {
			return err
		}
		if pl.out.Steps == nil {
			n := len(pd.Levels)
			pl.out.Steps = make([]Step, 0, steps)
			pl.levelsBuf = make([]int, 0, steps*n)
			pl.gatedBuf = make([]bool, 0, steps*n)
			pl.wBuf = make([]float64, 0, steps*n)
		}
		pl.activeSum += pd.ActiveCores
		ls := len(pl.levelsBuf)
		pl.levelsBuf = append(pl.levelsBuf, pd.Levels...)
		gs := len(pl.gatedBuf)
		pl.gatedBuf = append(pl.gatedBuf, pd.Gated...)
		ws := len(pl.wBuf)
		pl.wBuf = append(pl.wBuf, pd.PlacementW...)
		pl.out.Steps = append(pl.out.Steps, Step{
			Index:       pd.Step,
			TimeS:       pd.TimeS,
			Levels:      pl.levelsBuf[ls:len(pl.levelsBuf):len(pl.levelsBuf)],
			Gated:       pl.gatedBuf[gs:len(pl.gatedBuf):len(pl.gatedBuf)],
			PlacementW:  pl.wBuf[ws:len(pl.wBuf):len(pl.wBuf)],
			TotalW:      pd.TotalW,
			MaxCoreW:    pd.MaxCoreW,
			PeakC:       pd.PeakC,
			GIPS:        pd.GIPS,
			ActiveCores: pd.ActiveCores,
			TSPPerCoreW: tspW,
			DTM:         pd.DTM,
		})
		return nil
	}
}

// finish copies the engine's aggregates into the Outcome, or the lane's
// error when it retired.
func (pl *packLane) finish(opt Options, steps, cores int) {
	out := pl.out
	if pl.Err != nil {
		// The engine's run-shape errors are policy errors here.
		err := pl.Err
		if errors.Is(err, sim.ErrRun) {
			err = fmt.Errorf("%w: %w", ErrPolicy, err)
		}
		out.Err = err.Error()
		return
	}
	r := pl.Result
	out.AvgGIPS, out.EnergyJ, out.PeakPowerW = r.AvgGIPS, r.EnergyJ, r.PeakPowerW
	out.MaxTempC, out.DTMEvents = r.MaxTempC, r.DTMEvents
	if work := out.AvgGIPS * opt.Duration; work > 0 {
		out.EnergyPerGinstr = out.EnergyJ / work
	}
	if cores > 0 {
		avgActive := float64(pl.activeSum) / float64(steps)
		out.DarkPercent = 100 * (1 - avgActive/float64(cores))
	}
}
