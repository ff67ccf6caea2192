package sim

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"darksim/internal/apps"
	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/tech"
)

var platCache *core.Platform

func plat(t testing.TB) *core.Platform {
	t.Helper()
	if platCache == nil {
		p, err := core.NewPlatform(tech.Node16)
		if err != nil {
			t.Fatal(err)
		}
		platCache = p
	}
	return platCache
}

// x264Plan builds the Figure 11 workload: 12 instances × 8 threads.
func x264Plan(t testing.TB, p *core.Platform) *mapping.Plan {
	t.Helper()
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	cores, err := mapping.PeripheryFirst(p.Floorplan, 96)
	if err != nil {
		t.Fatal(err)
	}
	plan := &mapping.Plan{NumCores: p.NumCores()}
	for i := 0; i < 12; i++ {
		plan.Placements = append(plan.Placements, mapping.Placement{
			App: x, Cores: cores[i*8 : (i+1)*8], FGHz: 3.0, Threads: 8,
		})
	}
	return plan
}

// fixedLevel is a trivial controller for engine tests.
type fixedLevel int

func (f fixedLevel) Next(float64) int { return int(f) }

func (f fixedLevel) Current() int { return int(f) }

func TestRunValidation(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	ladder := p.Ladder
	if _, err := Run(nil, plan, fixedLevel(0), ladder, Options{Duration: 1}); err == nil {
		t.Errorf("nil platform should error")
	}
	if _, err := Run(p, plan, fixedLevel(0), ladder, Options{}); err == nil {
		t.Errorf("zero duration should error")
	}
	if _, err := Run(p, plan, fixedLevel(0), ladder, Options{Duration: 1, ControlPeriod: 2}); err == nil {
		t.Errorf("period > duration should error")
	}
	bad := &mapping.Plan{NumCores: 50}
	if _, err := Run(p, bad, fixedLevel(0), ladder, Options{Duration: 1}); err == nil {
		t.Errorf("plan/platform mismatch should error")
	}
}

func TestRunHeatsTowardSteadyState(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	// Fix the level at 3.0 GHz and run 30 s from cold; the chip should
	// approach (from below) the steady-state temperature of that level.
	level := p.Ladder.Nearest(3.0)
	res, err := Run(p, plan, fixedLevel(level), p.Ladder, Options{
		Duration:      30,
		ControlPeriod: 10e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Placements {
		plan.Placements[i].FGHz = 3.0
	}
	want, err := p.PeakTemp(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTempC > want+0.5 {
		t.Errorf("transient overshot steady state: %.2f vs %.2f", res.MaxTempC, want)
	}
	last := res.PeakTemp.Y[len(res.PeakTemp.Y)-1]
	if last < want-8 {
		t.Errorf("after 30 s the chip should be near steady state: %.2f vs %.2f", last, want)
	}
	// Temperatures rise monotonically under constant power (sampled).
	for i := 1; i < res.PeakTemp.Len(); i++ {
		if res.PeakTemp.Y[i] < res.PeakTemp.Y[i-1]-1e-6 {
			t.Fatalf("peak temp decreased under constant level at sample %d", i)
		}
	}
	if res.AvgGIPS <= 0 || res.EnergyJ <= 0 || res.PeakPowerW <= 0 {
		t.Errorf("accounting empty: %+v", res)
	}
}

func TestRunStartSteady(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	level := p.Ladder.Nearest(3.0)
	res, err := Run(p, plan, fixedLevel(level), p.Ladder, Options{
		Duration:      0.5,
		ControlPeriod: 1e-3,
		StartSteady:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Already at steady state: temperature should barely move.
	if slices.Max(res.PeakTemp.Y)-slices.Min(res.PeakTemp.Y) > 0.5 {
		t.Errorf("steady start should hold temperature: range %.2f–%.2f",
			slices.Min(res.PeakTemp.Y), slices.Max(res.PeakTemp.Y))
	}
}

func TestRunEmergencyThrottle(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	// Start on the boost top's steady state, 142.6 °C on this plan and
	// far above the TDTM+5 emergency threshold: the guard must throttle
	// to level 0.
	top := len(p.BoostLadder.Points) - 1
	res, err := Run(p, plan, fixedLevel(top), p.BoostLadder, Options{
		Duration:      0.2,
		ControlPeriod: 1e-3,
		StartSteady:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DTMEvents == 0 {
		t.Errorf("emergency throttle never triggered")
	}
	// Throttled level is the ladder bottom.
	if slices.Min(res.LevelGHz.Y) != p.BoostLadder.Points[0].FGHz {
		t.Errorf("throttle should clamp to lowest level; min = %v", slices.Min(res.LevelGHz.Y))
	}
}

func TestRunGIPSMatchesLevel(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	x, _ := apps.ByName("x264")
	level := p.Ladder.Nearest(2.0)
	res, err := Run(p, plan, fixedLevel(level), p.Ladder, Options{
		Duration:      0.1,
		ControlPeriod: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 12 * x.InstanceGIPS(2.0, 8)
	if diff := res.AvgGIPS - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("GIPS = %v, want %v", res.AvgGIPS, want)
	}
}

// runSolo steps one chip-wide lane under ctrl through RunLanes, with an
// optional per-period hook: the solo reference for dynamic plans and
// hooks.
func runSolo(p *core.Platform, plans PlanProvider, ctrl Controller, hook func(*Period) error, opt Options) (Result, error) {
	lane := &Lane{
		Plans:  plans,
		Ctrl:   ChipWide(ctrl, p.Ladder, len(plans.PlanAt(0).Placements)),
		Ladder: p.Ladder,
		Hook:   hook,
	}
	if err := RunLanes(context.Background(), p, []*Lane{lane}, opt); err != nil {
		return Result{}, err
	}
	return lane.Result, lane.Err
}

func TestRunObserver(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	opt := Options{Duration: 0.05, ControlPeriod: 1e-3}
	calls := 0
	var lastPeak float64
	res, err := runSolo(p, StaticPlan{Plan: plan}, fixedLevel(3), func(pd *Period) error {
		calls++
		if len(pd.TempsC) != 100 || len(pd.PowerW) != 100 {
			t.Fatalf("hook vectors sized %d/%d", len(pd.TempsC), len(pd.PowerW))
		}
		for _, tc := range pd.TempsC {
			if tc > lastPeak {
				lastPeak = tc
			}
		}
		return nil
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 50 {
		t.Errorf("hook called %d times, want 50", calls)
	}
	if lastPeak < res.MaxTempC-1e-9 {
		t.Errorf("hook missed the peak: %v vs %v", lastPeak, res.MaxTempC)
	}
	want, err := Run(p, plan, fixedLevel(3), p.Ladder, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("hooked lane differs from the unhooked Run")
	}
	// A hook error retires the lane.
	boom := errors.New("boom")
	if _, err := runSolo(p, StaticPlan{Plan: plan}, fixedLevel(3), func(*Period) error { return boom }, opt); !errors.Is(err, boom) {
		t.Errorf("hook error should retire the lane: %v", err)
	}
}

func TestRunDynamicSwitchesPlans(t *testing.T) {
	p := plat(t)
	planA := x264Plan(t, p)
	// planB uses a different region of the chip.
	x, _ := apps.ByName("x264")
	cores, err := mapping.Contiguous(p.Floorplan, 16)
	if err != nil {
		t.Fatal(err)
	}
	planB := &mapping.Plan{NumCores: p.NumCores()}
	for i := 0; i < 2; i++ {
		planB.Placements = append(planB.Placements, mapping.Placement{
			App: x, Cores: cores[i*8 : (i+1)*8], FGHz: 3.0, Threads: 8,
		})
	}
	opt := Options{Duration: 0.05, ControlPeriod: 1e-3}
	res, err := runSolo(p, planSwitcher{at: 0.025, a: planA, b: planB}, fixedLevel(3), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	// GIPS halves... the first half runs 12 instances, the second 2.
	firstG := res.GIPS.Y[0]
	lastG := res.GIPS.Y[len(res.GIPS.Y)-1]
	if lastG >= firstG {
		t.Errorf("plan switch should drop GIPS: %v -> %v", firstG, lastG)
	}
	// A provider returning an invalid plan aborts.
	bad := &mapping.Plan{NumCores: 3}
	if _, err := runSolo(p, planSwitcher{at: 0.01, a: planA, b: bad}, fixedLevel(3), nil, opt); err == nil {
		t.Errorf("invalid mid-run plan should abort")
	}
	// A provider returning nil mid-run aborts.
	if _, err := runSolo(p, planSwitcher{at: 0.01, a: planA, b: nil}, fixedLevel(3), nil, opt); err == nil {
		t.Errorf("nil mid-run plan should abort")
	}
}

// planSwitcher switches from plan a to plan b at time `at`.
type planSwitcher struct {
	at   float64
	a, b *mapping.Plan
}

func (s planSwitcher) PlanAt(t float64) *mapping.Plan {
	if t < s.at {
		return s.a
	}
	return s.b
}
