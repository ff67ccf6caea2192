package rotate

import (
	"context"
	"math"
	"testing"

	"darksim/internal/apps"
	"darksim/internal/boost"
	"darksim/internal/core"
	"darksim/internal/floorplan"
	"darksim/internal/mapping"
	"darksim/internal/sim"
	"darksim/internal/tech"
)

func grid(t testing.TB) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestNewValidation(t *testing.T) {
	fp := grid(t)
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Instances: 0, FGHz: 3, Phases: 2},
		{Instances: 4, FGHz: 0, Phases: 2},
		{Instances: 4, FGHz: 3, Phases: 1},
		{Instances: 4, FGHz: 3, Phases: 2, PeriodS: -1},
		{Instances: 20, FGHz: 3, Phases: 2}, // 160 cores on a 100-core chip
	}
	for i, opt := range cases {
		if _, err := New(fp, x, opt); err == nil {
			t.Errorf("case %d should error: %+v", i, opt)
		}
	}
}

func TestScheduleStructure(t *testing.T) {
	fp := grid(t)
	x, _ := apps.ByName("x264")
	s, err := New(fp, x, Options{Instances: 6, FGHz: 3.0, Phases: 2, PeriodS: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %d", len(s.Phases))
	}
	for i, plan := range s.Phases {
		if plan.ActiveCores() != 48 {
			t.Errorf("phase %d active = %d", i, plan.ActiveCores())
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("phase %d invalid: %v", i, err)
		}
	}
	// Phases are disjoint when the workload fits in half the chip
	// (48 ≤ 50).
	used := map[int]int{}
	for _, plan := range s.Phases {
		for _, pl := range plan.Placements {
			for _, c := range pl.Cores {
				used[c]++
			}
		}
	}
	for c, n := range used {
		if n > 1 {
			t.Errorf("core %d active in %d phases; expected disjoint", c, n)
		}
	}
	// PlanAt cycles with the period.
	if s.PlanAt(0) != s.Phases[0] || s.PlanAt(0.49) != s.Phases[0] {
		t.Errorf("phase 0 window wrong")
	}
	if s.PlanAt(0.5) != s.Phases[1] || s.PlanAt(1.0) != s.Phases[0] {
		t.Errorf("cycling wrong")
	}
	if s.PlanAt(-0.1) == nil {
		// negative time clamps into the cycle rather than panicking
	} else if s.PlanAt(-0.1) != s.Phases[1] {
		t.Errorf("negative time should wrap")
	}
	var empty Schedule
	if empty.PlanAt(1) != nil {
		t.Errorf("empty schedule should be inert")
	}
}

func TestRotationLowersPeakTemperature(t *testing.T) {
	// The headline property: at identical performance (same instantaneous
	// active-core count and frequency), rotating the mapping lowers the
	// steady peak temperature versus a static mapping, because each site
	// only integrates duty-cycled power.
	if testing.Short() {
		t.Skip("transient experiment")
	}
	p, err := core.NewPlatform(tech.Node16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := apps.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	// Rotate between the two checkerboard parities: both phases are
	// equally well spread, so the comparison isolates the duty-cycling
	// effect. (Rotating a periphery-first ordering would instead move
	// work into the die centre and can *raise* the peak.)
	// The rotation period must also sit below the die-local thermal time
	// constant (≈2 ms for this stack) or each site fully heats within
	// its dwell and the duty-cycling benefit vanishes.
	const instances = 6
	sched, err := New(p.Floorplan, s, Options{
		Instances: instances, FGHz: 3.6, Phases: 2, PeriodS: 1e-3,
		Base: mapping.Checkerboard,
	})
	if err != nil {
		t.Fatal(err)
	}
	level := p.Ladder.Nearest(3.6)
	opts := sim.Options{Duration: 10, ControlPeriod: 0.5e-3}
	static, err := sim.Run(p, sched.Phases[0], boost.Constant{Level: level}, p.Ladder, opts)
	if err != nil {
		t.Fatal(err)
	}
	lane := &sim.Lane{Plans: sched, Ctrl: sim.ChipWide(boost.Constant{Level: level}, p.Ladder, instances), Ladder: p.Ladder}
	if err := sim.RunLanes(context.Background(), p, []*sim.Lane{lane}, opts); err != nil || lane.Err != nil {
		t.Fatal(err, lane.Err)
	}
	rotated := lane.Result
	// Identical performance…
	if math.Abs(static.AvgGIPS-rotated.AvgGIPS) > 1e-6 {
		t.Errorf("GIPS differ: %v vs %v", static.AvgGIPS, rotated.AvgGIPS)
	}
	// …and a clearly lower peak for rotation.
	if rotated.MaxTempC >= static.MaxTempC-0.5 {
		t.Errorf("rotation should cut the peak: static %.2f vs rotated %.2f",
			static.MaxTempC, rotated.MaxTempC)
	}
}
