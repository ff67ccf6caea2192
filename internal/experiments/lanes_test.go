package experiments

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"darksim/internal/apps"
	"darksim/internal/boost"
	"darksim/internal/mapping"
	"darksim/internal/sim"
	"darksim/internal/tech"
)

// TestBoostSweepMatchesSoloRuns pins the figures' joint batch to the solo
// runs it replaced: in one RunLanes call the constant lane (quiet under
// StepAuto, so it snaps onto its steady state) must equal its solo StepAuto sim.Run and the boosting
// lane its solo exact sim.Run, bit for bit — for Fig. 11's single plan on
// the full recording grid and for a two-point sweep on the coarse grid.
func TestBoostSweepMatchesSoloRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("transient co-simulation")
	}
	p := mustPlatform(t, tech.Node16, 100)
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	plan := func(instances int) *mapping.Plan {
		pl, err := mapping.Pack(p.Floorplan, mapping.PeripheryFirst, instances*8, x, 8, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	cases := []struct {
		name         string
		plans        []*mapping.Plan
		duration     float64
		recordPoints int
	}{
		{"fig11", []*mapping.Plan{plan(12)}, 2, 0},
		{"sweep", []*mapping.Plan{plan(3), plan(9)}, 1, sweepRecordPoints},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			boostRes, constRes, levels, err := boostSweep(context.Background(), p, tc.plans, tc.duration, tc.recordPoints,
				func(int) string { return tc.name })
			if err != nil {
				t.Fatal(err)
			}
			ladder := p.BoostLadder
			opts := sim.Options{Duration: tc.duration, ControlPeriod: 1e-3, StartSteady: true, RecordPoints: tc.recordPoints}
			for i, pl := range tc.plans {
				auto := opts
				auto.StepMode = sim.StepAuto
				wantConst, err := sim.Run(p, pl, boost.Constant{Level: levels[i]}, ladder, auto)
				if err != nil {
					t.Fatal(err)
				}
				ctrl, err := boost.NewClosed(p.TDTM, levels[i], len(ladder.Points)-1)
				if err != nil {
					t.Fatal(err)
				}
				wantBoost, err := sim.Run(p, pl, ctrl, ladder, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(constRes[i], wantConst) {
					t.Errorf("plan %d: constant lane differs from its solo StepAuto run", i)
				}
				if !reflect.DeepEqual(boostRes[i], wantBoost) {
					t.Errorf("plan %d: boosting lane differs from its solo exact run", i)
				}
			}
		})
	}
}

// TestRotationLanesMatchSoloRuns pins the rotation/aging batch: three
// lanes — two static plans and the rotation schedule — with per-lane wear
// hooks in one RunLanes call must each equal a solo one-lane RunLanes of
// the same provider, and every hook must see the same temperatures as its
// solo lane's hook.
func TestRotationLanesMatchSoloRuns(t *testing.T) {
	p, _, lanes, err := rotationStudy()
	if err != nil {
		t.Fatal(err)
	}
	const duration = 0.05
	seen := make([][][]float64, len(lanes))
	for i, l := range lanes {
		l.Hook = func(pd *sim.Period) error {
			seen[i] = append(seen[i], slices.Clone(pd.TempsC))
			return nil
		}
	}
	if err := runRotationStudy(p, lanes, duration); err != nil {
		t.Fatal(err)
	}
	level := p.Ladder.Nearest(3.6)
	for i, l := range lanes {
		var solo [][]float64
		lane := &sim.Lane{
			Plans:  l.Plans,
			Ctrl:   sim.ChipWide(boost.Constant{Level: level}, p.Ladder, len(l.Plans.PlanAt(0).Placements)),
			Ladder: p.Ladder,
			Hook: func(pd *sim.Period) error {
				solo = append(solo, slices.Clone(pd.TempsC))
				return nil
			},
		}
		opt := sim.Options{Duration: duration, ControlPeriod: 0.5e-3}
		if err := sim.RunLanes(context.Background(), p, []*sim.Lane{lane}, opt); err != nil || lane.Err != nil {
			t.Fatal(err, lane.Err)
		}
		if !reflect.DeepEqual(l.Result, lane.Result) {
			t.Errorf("%s: lane result differs from its solo run", rotationPolicies[i])
		}
		if len(solo) != 100 || !reflect.DeepEqual(seen[i], solo) {
			t.Errorf("%s: hook saw %d periods, solo hook %d, or different temperatures",
				rotationPolicies[i], len(seen[i]), len(solo))
		}
	}
}
