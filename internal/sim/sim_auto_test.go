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
		// The next two cases run long enough, with periods coarse enough,
		// that the same lane on a static plan without a hook snaps onto
		// its steady state (see TestStepAutoColdStartExactUntilSnap).
		{"dynamic provider", func(opt Options) (Result, error) {
			opt.Duration, opt.ControlPeriod, opt.RecordPoints = 400, 0.1, 100
			planB := x264Plan(t, p)
			return runSolo(p, planSwitcher{at: 50, a: planA, b: planB}, fixedQuiet(p.Ladder.Nearest(3.0)), nil, opt)
		}},
		{"hooked lane", func(opt Options) (Result, error) {
			opt.Duration, opt.ControlPeriod, opt.RecordPoints = 400, 0.1, 100
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

// TestStepAutoQuietMatchesExact is the snapped-lane property test: a
// constant-level run on a static plan, long enough to snap and hold its
// steady state, must track the exact trajectory within a small fraction
// of a degree on every recorded sample, and keep the scalar aggregates
// within a relative whisker. This is the bound the golden experiment
// corpus (abs 1e-6 / rel 2e-3) leans on.
func TestStepAutoQuietMatchesExact(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	level := p.Ladder.Nearest(3.0)
	base := Options{Duration: 400, ControlPeriod: 0.1, RecordPoints: 50}

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

// TestStepAutoColdStartExactUntilSnap pins the quiet-lane contract on a
// cold start, a guard band below the DTM threshold: a StepAuto lane
// steps exactly until its state settles onto the frozen-power steady
// state, so every recorded point before its first snap equals StepExact
// bit for bit, and the first point that differs lies within the snap
// tolerance of where the exact run settles. The lane must snap, which
// also shows as fewer solves than the exact run.
func TestStepAutoColdStartExactUntilSnap(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	level := p.Ladder.Nearest(3.0)
	// Implicit Euler is stable at any period: 100 ms periods let the
	// sink settle to within the snap tolerance in 4000 steps.
	base := Options{Duration: 400, ControlPeriod: 0.1, RecordPoints: 100}
	run := func(mode StepMode) (Result, uint64) {
		t.Helper()
		opt := base
		opt.StepMode = mode
		before := p.Thermal.SolverStats().Solves
		res, err := Run(p, plan, fixedQuiet(level), p.Ladder, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, p.Thermal.SolverStats().Solves - before
	}
	want, exactSolves := run(StepExact)
	got, autoSolves := run(StepAuto)

	if got.Time.Len() != want.Time.Len() {
		t.Fatalf("recording grids differ: %d vs %d samples", got.Time.Len(), want.Time.Len())
	}
	last := want.PeakTemp.Len() - 1
	if want.MaxTempC > p.TDTM+5-quietDTMGuardC || want.DTMEvents != 0 {
		t.Fatalf("exact run reaches %.2f °C: not below the guard band", want.MaxTempC)
	}
	first := -1
	for i := range want.PeakTemp.Y {
		if got.Time.X[i] != want.Time.X[i] {
			t.Fatalf("sample %d at t=%v, want t=%v", i, got.Time.X[i], want.Time.X[i])
		}
		if got.PeakTemp.Y[i] != want.PeakTemp.Y[i] || got.PowerW.Y[i] != want.PowerW.Y[i] {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("StepAuto never snapped: every recorded point equals StepExact")
	}
	settled := want.PeakTemp.Y[last]
	if d := math.Abs(want.PeakTemp.Y[first] - settled); d > 2*stepAutoSnapTolC {
		t.Fatalf("first difference at sample %d (t=%v s), %.4g °C from the settled %.4f °C: "+
			"StepAuto left the exact trajectory before the steady state",
			first, want.Time.X[first], d, settled)
	}
	for i := first; i <= last; i++ {
		if d := math.Abs(got.PeakTemp.Y[i] - want.PeakTemp.Y[i]); d > 2*stepAutoSnapTolC {
			t.Fatalf("sample %d: snapped peak %v vs exact %v", i, got.PeakTemp.Y[i], want.PeakTemp.Y[i])
		}
	}
	// The exact steps up to the first snapped sample, plus at most one
	// steady solve per recording interval; the held periods solve
	// nothing.
	every := int(base.Duration/base.ControlPeriod+0.5) / base.RecordPoints
	if bound := uint64(first*every + base.RecordPoints + 1); autoSolves > bound || autoSolves >= exactSolves {
		t.Errorf("StepAuto made %d solves (StepExact %d), want at most %d", autoSolves, exactSolves, bound)
	}
}
