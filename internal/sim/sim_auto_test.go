package sim

import (
	"math"
	"reflect"
	"testing"
)

// fixedQuiet is a FixedLevelController for fast-path tests.
type fixedQuiet int

func (f fixedQuiet) Next(float64) int { return int(f) }

func (f fixedQuiet) Current() int { return int(f) }

func (f fixedQuiet) FixedLevel() int { return int(f) }

// rampCtrl changes its answer every period — a stateful controller that
// must force StepAuto onto the exact path.
type rampCtrl struct{ level, max int }

func (r *rampCtrl) Next(float64) int {
	if r.level < r.max {
		r.level++
	}
	return r.level
}

func (r *rampCtrl) Current() int { return r.level }

// TestStepAutoDegradesBitIdentical pins the exactness contract: whenever
// a run cannot be proven quiet — stateful controller, dynamic plan
// provider, a per-period hook, or a DTM threshold the frozen steady state would violate —
// StepAuto must produce the StepExact result bit for bit, fused power
// coefficients included.
func TestStepAutoDegradesBitIdentical(t *testing.T) {
	p := plat(t)
	planA := x264Plan(t, p)
	base := Options{Duration: 0.1, ControlPeriod: 1e-3}

	cases := []struct {
		name string
		run  func(opt Options) (Result, error)
	}{
		{"stateful controller", func(opt Options) (Result, error) {
			return Run(p, planA, &rampCtrl{max: 5}, p.Ladder, opt)
		}},
		// The next two cases run long enough, at a level low enough, that
		// the same lane on a static plan without a hook macro-steps.
		{"dynamic provider", func(opt Options) (Result, error) {
			opt.Duration, opt.RecordPoints = 2, 50
			planB := x264Plan(t, p)
			return runSolo(p, planSwitcher{at: 1, a: planA, b: planB}, fixedQuiet(p.Ladder.Nearest(3.0)), nil, opt)
		}},
		{"hooked lane", func(opt Options) (Result, error) {
			opt.Duration, opt.RecordPoints = 2, 50
			return runSolo(p, StaticPlan{Plan: planA}, fixedQuiet(p.Ladder.Nearest(3.0)), func(*Period) error { return nil }, opt)
		}},
		{"frozen steady above DTM cap", func(opt Options) (Result, error) {
			opt.EmergencyC = p.Thermal.Ambient() + 1
			top := len(p.BoostLadder.Points) - 1
			return Run(p, planA, fixedQuiet(top), p.BoostLadder, opt)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact := base
			exact.StepMode = StepExact
			auto := base
			auto.StepMode = StepAuto
			want, err := tc.run(exact)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.run(auto)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("StepAuto degraded run differs from StepExact:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestStepAutoQuietMatchesExact is the macro-stepped property test: a
// constant-level run on a static plan must track the exact trajectory
// within a small fraction of a degree on every recorded sample, and keep
// the scalar aggregates within a relative whisker. This is the bound the
// golden experiment corpus (abs 1e-6 / rel 2e-3) leans on.
func TestStepAutoQuietMatchesExact(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	level := p.Ladder.Nearest(3.0)
	base := Options{Duration: 2, ControlPeriod: 1e-3, RecordPoints: 50}

	exact := base
	exact.StepMode = StepExact
	want, err := Run(p, plan, fixedQuiet(level), p.Ladder, exact)
	if err != nil {
		t.Fatal(err)
	}
	auto := base
	auto.StepMode = StepAuto
	got, err := Run(p, plan, fixedQuiet(level), p.Ladder, auto)
	if err != nil {
		t.Fatal(err)
	}

	if got.Time.Len() != want.Time.Len() {
		t.Fatalf("recording grids differ: %d vs %d samples", got.Time.Len(), want.Time.Len())
	}
	for i := range want.PeakTemp.Y {
		if got.Time.X[i] != want.Time.X[i] {
			t.Fatalf("sample %d at t=%v, want t=%v", i, got.Time.X[i], want.Time.X[i])
		}
		if d := math.Abs(got.PeakTemp.Y[i] - want.PeakTemp.Y[i]); d > 0.05 {
			t.Fatalf("sample %d (t=%v s): peak %v vs exact %v (|Δ|=%g)",
				i, want.Time.X[i], got.PeakTemp.Y[i], want.PeakTemp.Y[i], d)
		}
	}
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }
	if rel(got.AvgGIPS, want.AvgGIPS) > 1e-9 {
		t.Errorf("AvgGIPS %v vs %v", got.AvgGIPS, want.AvgGIPS)
	}
	if rel(got.EnergyJ, want.EnergyJ) > 1e-3 {
		t.Errorf("EnergyJ %v vs %v", got.EnergyJ, want.EnergyJ)
	}
	if math.Abs(got.MaxTempC-want.MaxTempC) > 0.05 {
		t.Errorf("MaxTempC %v vs %v", got.MaxTempC, want.MaxTempC)
	}
	if got.DTMEvents != 0 || want.DTMEvents != 0 {
		t.Errorf("quiet run hit DTM: auto=%d exact=%d", got.DTMEvents, want.DTMEvents)
	}

	// And from a steady start the trajectory is (nearly) flat either way.
	steadyAuto := auto
	steadyAuto.StartSteady = true
	res, err := Run(p, plan, fixedQuiet(level), p.Ladder, steadyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakTemp.Max()-res.PeakTemp.Min() > 0.5 {
		t.Errorf("steady-start StepAuto drifted: range %.3f–%.3f",
			res.PeakTemp.Min(), res.PeakTemp.Max())
	}
}
