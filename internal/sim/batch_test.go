package sim

import (
	"context"
	"reflect"
	"testing"
)

// thermostat is a stateful test controller: it walks the level up every
// period and drops to the floor whenever the peak temperature crosses
// its threshold, so a run under it exercises level changes, controller
// state and (on a hot lane) the DTM override.
type thermostat struct {
	level int
	max   int
	tripC float64
}

func (c *thermostat) Next(peakTempC float64) int {
	if peakTempC > c.tripC {
		c.level = 0
	} else if c.level < c.max {
		c.level++
	}
	return c.level
}

func (c *thermostat) Current() int { return c.level }

// TestRunBatchMatchesSoloRuns pins the lockstep batch engine to the
// solo engine: every lane of RunBatch must be bit-for-bit identical
// (reflect.DeepEqual, no tolerance) to Run of the same plan and an
// identically-configured controller under StepExact.
func TestRunBatchMatchesSoloRuns(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	// The top boost level's steady state (142.6 °C on this plan) is far
	// above the TDTM+5 DTM threshold, so the hot fixed-level lane trips
	// the override and the batch path's emergency accounting is covered.
	top := len(p.BoostLadder.Points) - 1
	opt := Options{Duration: 0.05, StartSteady: true}

	mk := func() []BatchRun {
		return []BatchRun{
			{Plan: plan, Ctrl: fixedLevel(top)},
			{Plan: plan, Ctrl: &thermostat{max: top, tripC: p.TDTM - 2}},
			{Plan: plan, Ctrl: fixedLevel(0)},
		}
	}

	batched, err := RunBatch(context.Background(), p, mk(), p.BoostLadder, opt)
	if err != nil {
		t.Fatal(err)
	}
	solos := mk() // fresh controller state for the solo reference runs
	for i, r := range solos {
		solo, err := Run(p, r.Plan, r.Ctrl, p.BoostLadder, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], solo) {
			t.Errorf("lane %d: batched result differs from solo StepExact run", i)
		}
	}
	if batched[0].DTMEvents == 0 {
		t.Errorf("hot lane saw no DTM events; the override path went uncovered")
	}

	// Under StepAuto quietness is a lane property: a fixed-level lane
	// snaps exactly as its solo StepAuto run does, while the
	// closed-loop lane beside it stays on its StepExact trajectory.
	t.Run("StepAuto", func(t *testing.T) {
		auto := Options{Duration: 0.2, StartSteady: true, RecordPoints: 10, StepMode: StepAuto}
		exact := auto
		exact.StepMode = StepExact
		level := p.Ladder.Nearest(3.0)
		mk := func() []BatchRun {
			return []BatchRun{
				{Plan: plan, Ctrl: fixedQuiet(level)},
				{Plan: plan, Ctrl: &thermostat{max: len(p.Ladder.Points) - 1, tripC: p.TDTM - 2}},
			}
		}
		batched, err := RunBatch(context.Background(), p, mk(), p.Ladder, auto)
		if err != nil {
			t.Fatal(err)
		}
		solos := mk()
		fixedAuto, err := Run(p, solos[0].Plan, solos[0].Ctrl, p.Ladder, auto)
		if err != nil {
			t.Fatal(err)
		}
		fixedExact, err := Run(p, solos[0].Plan, solos[0].Ctrl, p.Ladder, exact)
		if err != nil {
			t.Fatal(err)
		}
		loopExact, err := Run(p, solos[1].Plan, solos[1].Ctrl, p.Ladder, exact)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(fixedAuto, fixedExact) {
			t.Fatal("fixed-level lane never snapped; the StepAuto case is vacuous")
		}
		if !reflect.DeepEqual(batched[0], fixedAuto) {
			t.Errorf("fixed-level lane differs from its solo StepAuto run")
		}
		if !reflect.DeepEqual(batched[1], loopExact) {
			t.Errorf("closed-loop lane differs from its solo StepExact run")
		}
	})
}

func TestRunBatchValidation(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	ctx := context.Background()
	if _, err := RunBatch(ctx, nil, []BatchRun{{Plan: plan, Ctrl: fixedLevel(0)}}, p.Ladder, Options{Duration: 1}); err == nil {
		t.Errorf("nil platform should error")
	}
	if _, err := RunBatch(ctx, p, []BatchRun{{Plan: nil, Ctrl: fixedLevel(0)}}, p.Ladder, Options{Duration: 1}); err == nil {
		t.Errorf("nil lane plan should error")
	}
	if res, err := RunBatch(ctx, p, nil, p.Ladder, Options{Duration: 1}); err != nil || res != nil {
		t.Errorf("empty batch should be a no-op, got %v, %v", res, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RunBatch(cancelled, p, []BatchRun{{Plan: plan, Ctrl: fixedLevel(0)}}, p.Ladder, Options{Duration: 0.01}); err == nil {
		t.Errorf("cancelled context should abort the batch")
	}
}
