package core

import (
	"math"
	"testing"

	"darksim/internal/apps"
	"darksim/internal/mapping"
	"darksim/internal/tech"
)

// plat16 caches the 16 nm platform across tests (construction factors a
// ~360-node Cholesky).
var plat16cache *Platform

func plat16(t testing.TB) *Platform {
	t.Helper()
	if plat16cache == nil {
		p, err := NewPlatform(tech.Node16)
		if err != nil {
			t.Fatal(err)
		}
		plat16cache = p
	}
	return plat16cache
}

func TestNewPlatformDefaults(t *testing.T) {
	p := plat16(t)
	if p.NumCores() != 100 {
		t.Errorf("cores = %d", p.NumCores())
	}
	if p.TDTM != 80 {
		t.Errorf("TDTM = %v", p.TDTM)
	}
	if p.Ladder.Points[len(p.Ladder.Points)-1].FGHz != 3.6 {
		t.Errorf("ladder top = %v", p.Ladder.Points[len(p.Ladder.Points)-1].FGHz)
	}
	if got := p.BoostLadder.Points[len(p.BoostLadder.Points)-1].FGHz; math.Abs(got-4.2) > 1e-9 {
		t.Errorf("boost top = %v", got)
	}
}

func TestNewPlatformOptionsAndErrors(t *testing.T) {
	p, err := NewPlatformWith(tech.Node11, Options{Cores: 198, TDTM: 75})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCores() != 198 || p.TDTM != 75 {
		t.Errorf("platform options not applied")
	}
	if _, err := NewPlatform(tech.Node(5)); err == nil {
		t.Errorf("unknown node should error")
	}
	if _, err := NewPlatformWith(tech.Node16, Options{Cores: 97}); err == nil {
		t.Errorf("prime core count should error")
	}
}

func TestPowerModeString(t *testing.T) {
	if BusyWait.String() != "busy-wait" || GatedIdle.String() != "gated-idle" {
		t.Errorf("mode strings wrong")
	}
	if PowerMode(9).String() == "" {
		t.Errorf("unknown mode should render")
	}
}

func TestPlanPowerModes(t *testing.T) {
	p := plat16(t)
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	plan := &mapping.Plan{NumCores: 100, Placements: []mapping.Placement{
		{App: x, Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}, FGHz: 3.0, Threads: 8},
	}}
	busy, err := p.PlanPower(plan, 80, BusyWait)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := p.PlanPower(plan, 80, GatedIdle)
	if err != nil {
		t.Fatal(err)
	}
	if busy[0] <= 0 {
		t.Fatalf("busy power = %v", busy[0])
	}
	// Gated idle strictly reduces multi-thread power.
	if gated[0] >= busy[0] {
		t.Errorf("gated %v should be below busy %v", gated[0], busy[0])
	}
	// Single-thread placements are identical across modes.
	single := &mapping.Plan{NumCores: 100, Placements: []mapping.Placement{
		{App: x, Cores: []int{50}, FGHz: 3.0, Threads: 1},
	}}
	b1, err := p.PlanPower(single, 80, BusyWait)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := p.PlanPower(single, 80, GatedIdle)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b1[50]-g1[50]) > 1e-12 {
		t.Errorf("single-thread power should not depend on mode")
	}
	// Plan size mismatch errors.
	if _, err := p.PlanPower(&mapping.Plan{NumCores: 64}, 80, BusyWait); err == nil {
		t.Errorf("mismatched plan should error")
	}
}

func TestSteadyTempsFixedPoint(t *testing.T) {
	p := plat16(t)
	s, err := apps.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Pack(p.Floorplan, mapping.Contiguous, 48, s, apps.MaxThreadsPerInstance, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	temps, power, err := p.SteadyTemps(plan, BusyWait)
	if err != nil {
		t.Fatal(err)
	}
	// The fixed point must be self-consistent: re-evaluating power at the
	// returned temperatures and re-solving reproduces the temperatures.
	re, err := p.Thermal.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	for i := range temps {
		if math.Abs(re[i]-temps[i]) > 0.05 {
			t.Fatalf("fixed point not converged at %d: %v vs %v", i, re[i], temps[i])
		}
	}
	// Active cores are warmer than dark ones.
	if temps[0] <= temps[99] {
		t.Errorf("active core %.2f not warmer than dark core %.2f", temps[0], temps[99])
	}
	if _, _, err := p.SteadyTemps(&mapping.Plan{NumCores: 10}, BusyWait); err == nil {
		t.Errorf("mismatched plan should error")
	}
}

func TestDarkSiliconUnderTDPAnchors(t *testing.T) {
	// Figure 5's headline numbers for the hungriest application at
	// 16 nm, 3.6 GHz: ≈37–45 % dark at TDP 220 W, ≈45–52 % at 185 W,
	// and only the optimistic budget violates the 80 °C threshold.
	p := plat16(t)
	s, err := apps.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := p.DarkSiliconUnderTDP(s, 220, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	pes, err := p.DarkSiliconUnderTDP(s, 185, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	if d := opt.Summary.DarkFraction(); d < 0.30 || d > 0.48 {
		t.Errorf("dark @220W = %.0f%%, want ≈37–45%%", d*100)
	}
	if d := pes.Summary.DarkFraction(); d < 0.42 || d > 0.55 {
		t.Errorf("dark @185W = %.0f%%, want ≈46–52%%", d*100)
	}
	if pes.Summary.DarkFraction() <= opt.Summary.DarkFraction() {
		t.Errorf("pessimistic TDP must leave more dark silicon")
	}
	if opt.Summary.PeakTempC <= p.TDTM {
		t.Errorf("optimistic TDP should violate TDTM: peak = %.2f", opt.Summary.PeakTempC)
	}
	if pes.Summary.PeakTempC > p.TDTM {
		t.Errorf("pessimistic TDP should be thermally safe: peak = %.2f", pes.Summary.PeakTempC)
	}
}

func TestDarkSiliconShrinksWithLowerVF(t *testing.T) {
	// Observation 2: scaling down v/f reduces dark silicon.
	p := plat16(t)
	s, err := apps.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	high, err := p.DarkSiliconUnderTDP(s, 185, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	low, err := p.DarkSiliconUnderTDP(s, 185, 2.8)
	if err != nil {
		t.Fatal(err)
	}
	if low.Summary.DarkFraction() >= high.Summary.DarkFraction() {
		t.Errorf("lower v/f should reduce dark silicon: %.2f vs %.2f",
			low.Summary.DarkFraction(), high.Summary.DarkFraction())
	}
}

func TestTemperatureConstraintReducesDarkSilicon(t *testing.T) {
	// §3.2 / Figure 6: a temperature constraint (with patterned mapping)
	// admits more active cores than the pessimistic TDP.
	p := plat16(t)
	s, err := apps.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	tdp, err := p.DarkSiliconUnderTDP(s, 185, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	temp, err := p.DarkSiliconUnderTemp(s, 3.6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if temp.Summary.ActiveCores <= tdp.Summary.ActiveCores {
		t.Errorf("temperature constraint should admit more cores: %d vs %d",
			temp.Summary.ActiveCores, tdp.Summary.ActiveCores)
	}
	if temp.Summary.PeakTempC > p.TDTM+1e-6 {
		t.Errorf("temperature-constrained plan violates TDTM: %.2f", temp.Summary.PeakTempC)
	}
}

func TestMaxCoresUnderTempMonotoneInFrequency(t *testing.T) {
	p := plat16(t)
	s, err := apps.ByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	n36, err := p.MaxCoresUnderTemp(s, 3.6, nil)
	if err != nil {
		t.Fatal(err)
	}
	n28, err := p.MaxCoresUnderTemp(s, 2.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n28 < n36 {
		t.Errorf("lower frequency should allow at least as many cores: %d vs %d", n28, n36)
	}
	if n36 <= 0 || n36 >= 100 {
		t.Errorf("n36 = %d should be an interior value", n36)
	}
	// A cool app can light the whole chip.
	c, err := apps.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	nAll, err := p.MaxCoresUnderTemp(c, 2.0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nAll != 100 {
		t.Errorf("canneal at 2 GHz should light the full chip, got %d", nAll)
	}
}

func TestBestDVFSConfigTLPvsILP(t *testing.T) {
	// §3.3: for the same instance count and budget, a high-TLP app keeps
	// 8 threads (at whatever frequency fits), while a high-ILP, low-TLP
	// app (x264) trades threads for frequency.
	p := plat16(t)
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := apps.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	cfgX, err := p.BestDVFSConfig(x, 12, 185)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := p.BestDVFSConfig(bs, 12, 185)
	if err != nil {
		t.Fatal(err)
	}
	if cfgX.Threads >= cfgB.Threads {
		t.Errorf("x264 threads (%d) should be below blackscholes threads (%d)", cfgX.Threads, cfgB.Threads)
	}
	if cfgX.FGHz < cfgB.FGHz {
		t.Errorf("x264 should run at least as fast: %.1f vs %.1f", cfgX.FGHz, cfgB.FGHz)
	}
	if cfgX.PowerW > 185 || cfgB.PowerW > 185 {
		t.Errorf("configs must respect the budget")
	}
	// The chosen config beats the naive 8-thread nominal setting under
	// the same constraints.
	naiveGIPS := 0.0
	for threads := apps.MaxThreadsPerInstance; threads >= 1; threads-- {
		cp, err := p.CorePower(x, 3.6, p.TDTM)
		if err != nil {
			t.Fatal(err)
		}
		if float64(12*threads)*cp <= 185 && 12*threads <= p.NumCores() {
			naiveGIPS = 12 * x.InstanceGIPS(3.6, threads)
			break
		}
	}
	if cfgX.GIPS < naiveGIPS {
		t.Errorf("optimizer worse than naive: %.1f vs %.1f", cfgX.GIPS, naiveGIPS)
	}
}

func TestBestDVFSConfigErrors(t *testing.T) {
	p := plat16(t)
	x, _ := apps.ByName("x264")
	if _, err := p.BestDVFSConfig(x, 0, 185); err == nil {
		t.Errorf("zero instances should error")
	}
	if _, err := p.BestDVFSConfig(x, 12, 0); err == nil {
		t.Errorf("zero TDP should error")
	}
	if _, err := p.BestDVFSConfig(x, 12, 0.01); err == nil {
		t.Errorf("impossible TDP should be infeasible")
	}
	if _, err := p.BestDVFSConfig(x, 1000, 185); err == nil {
		t.Errorf("too many instances should be infeasible")
	}
}

// TestPlanFromConfig packs the configuration BestDVFSConfig chose (12
// instances) onto the chip and checks the plan has the cores and
// throughput the search counted.
func TestPlanFromConfig(t *testing.T) {
	p := plat16(t)
	x, _ := apps.ByName("x264")
	cfg, err := p.BestDVFSConfig(x, 12, 185)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Pack(p.Floorplan, mapping.Contiguous, 12*cfg.Threads, x, cfg.Threads, cfg.FGHz)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ActiveCores() != cfg.Cores {
		t.Errorf("plan cores %d != config cores %d", plan.ActiveCores(), cfg.Cores)
	}
	if len(plan.Placements) != 12 {
		t.Errorf("instances = %d", len(plan.Placements))
	}
	sum, err := p.Summarize("cfg", plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.GIPS-cfg.GIPS) > 1e-9 {
		t.Errorf("summary GIPS %.2f != config GIPS %.2f", sum.GIPS, cfg.GIPS)
	}
}

func TestDarkSiliconUnderTempInfeasible(t *testing.T) {
	// With an absurdly low TDTM nothing can run.
	p, err := NewPlatformWith(tech.Node16, Options{TDTM: 42.5})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := apps.ByName("swaptions")
	if _, err := p.DarkSiliconUnderTemp(s, 3.6, nil); err == nil {
		t.Errorf("infeasible threshold should error")
	}
}

func TestLargerPlatforms(t *testing.T) {
	// The paper's 198-core (11 nm) and 361-core (8 nm) platforms run the
	// same estimators; smoke the full path on both.
	if testing.Short() {
		t.Skip("builds large thermal models")
	}
	cases := []struct {
		node  tech.Node
		cores int
		fmax  float64
	}{
		{tech.Node11, 198, 4.0},
		{tech.Node8, 361, 4.4},
	}
	for _, c := range cases {
		p, err := NewPlatformWith(c.node, Options{Cores: c.cores})
		if err != nil {
			t.Fatalf("%v: %v", c.node, err)
		}
		s, err := apps.ByName("swaptions")
		if err != nil {
			t.Fatal(err)
		}
		tdp, err := p.DarkSiliconUnderTDP(s, 185, c.fmax)
		if err != nil {
			t.Fatalf("%v: %v", c.node, err)
		}
		temp, err := p.DarkSiliconUnderTemp(s, c.fmax, nil)
		if err != nil {
			t.Fatalf("%v: %v", c.node, err)
		}
		if temp.Summary.ActiveCores < tdp.Summary.ActiveCores {
			t.Errorf("%v: temperature constraint should admit at least as many cores", c.node)
		}
		if temp.Summary.PeakTempC > p.TDTM+1e-6 {
			t.Errorf("%v: thermal violation %.2f", c.node, temp.Summary.PeakTempC)
		}
		// Dark silicon grows with scaling at fixed TDP (the paper's trend).
		if c.node == tech.Node8 && tdp.Summary.DarkFraction() < 0.5 {
			t.Errorf("8 nm dark fraction %.2f unexpectedly small", tdp.Summary.DarkFraction())
		}
	}
}
