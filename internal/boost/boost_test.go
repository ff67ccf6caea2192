package boost

import (
	"context"
	"testing"

	"darksim/internal/apps"
	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/sim"
	"darksim/internal/tech"
	"darksim/internal/thermal"
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

func TestClosedControllerSteps(t *testing.T) {
	c, err := NewClosed(80, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: climb one step per call, saturating at max.
	for want := 3; want <= 5; want++ {
		if got := c.Next(70); got != want {
			t.Fatalf("Next(70) = %d, want %d", got, want)
		}
	}
	if got := c.Next(70); got != 5 {
		t.Errorf("should saturate at max: %d", got)
	}
	// Above threshold: descend, saturating at 0.
	for want := 4; want >= 0; want-- {
		if got := c.Next(85); got != want {
			t.Fatalf("Next(85) = %d, want %d", got, want)
		}
	}
	if got := c.Next(85); got != 0 {
		t.Errorf("should saturate at 0: %d", got)
	}
}

func TestNewClosedErrors(t *testing.T) {
	if _, err := NewClosed(0, 0, 5); err == nil {
		t.Errorf("zero threshold should error")
	}
	if _, err := NewClosed(80, -1, 5); err == nil {
		t.Errorf("negative start should error")
	}
	if _, err := NewClosed(80, 6, 5); err == nil {
		t.Errorf("start above max should error")
	}
}

func TestConstantController(t *testing.T) {
	c := Constant{Level: 3}
	if c.Next(100) != 3 || c.Next(0) != 3 {
		t.Errorf("constant controller should ignore temperature")
	}
}

func TestFindConstantLevel(t *testing.T) {
	p := plat(t)
	plan := x264Plan(t, p)
	level, err := FindConstantLevel(p, plan, p.BoostLadder, p.TDTM)
	if err != nil {
		t.Fatal(err)
	}
	// The chosen level is safe…
	work := &mapping.Plan{NumCores: plan.NumCores}
	work.Placements = append([]mapping.Placement(nil), plan.Placements...)
	for i := range work.Placements {
		work.Placements[i].FGHz = p.BoostLadder.Points[level].FGHz
	}
	peak, err := p.PeakTemp(work)
	if err != nil {
		t.Fatal(err)
	}
	if peak > p.TDTM {
		t.Errorf("chosen level %d peaks at %.2f °C", level, peak)
	}
	// …and the next level up is not (otherwise the search under-filled).
	if level+1 < len(p.BoostLadder.Points) {
		for i := range work.Placements {
			work.Placements[i].FGHz = p.BoostLadder.Points[level+1].FGHz
		}
		peak, err = p.PeakTemp(work)
		if err != nil {
			t.Fatal(err)
		}
		if peak <= p.TDTM {
			t.Errorf("level %d would also be safe (%.2f °C); search not tight", level+1, peak)
		}
	}
	// 12 × x264 at 16 nm should land mid-ladder (a few steps below
	// nominal), the regime Figure 11 shows.
	f := p.BoostLadder.Points[level].FGHz
	if f < 2.0 || f > 3.6 {
		t.Errorf("constant level %.1f GHz outside the expected band", f)
	}
}

func TestFindConstantLevelNoSafe(t *testing.T) {
	// Set the threshold below ambient: nothing is safe.
	p := plat(t)
	plan := x264Plan(t, p)
	if _, err := FindConstantLevel(p, plan, p.Ladder, thermal.DefaultAmbientC-1); err == nil {
		t.Errorf("expected ErrNoSafeLevel")
	}
}

func TestClosedLoopOscillatesAroundThreshold(t *testing.T) {
	// The Figure 11 behaviour: the boosting controller oscillates around
	// the critical temperature while the constant baseline stays a few
	// degrees below it, and boosting achieves (slightly) higher average
	// performance at (clearly) higher peak power.
	if testing.Short() {
		t.Skip("transient co-simulation is slow in -short mode")
	}
	p := plat(t)
	plan := x264Plan(t, p)

	constLevel, err := FindConstantLevel(p, plan, p.BoostLadder, p.TDTM)
	if err != nil {
		t.Fatal(err)
	}
	constRes, err := sim.Run(p, plan, Constant{Level: constLevel}, p.BoostLadder, sim.Options{
		Duration:      20,
		ControlPeriod: 1e-3,
		StartSteady:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewClosed(p.TDTM, constLevel, len(p.BoostLadder.Points)-1)
	if err != nil {
		t.Fatal(err)
	}
	boostRes, err := sim.Run(p, plan, ctrl, p.BoostLadder, sim.Options{
		Duration:      20,
		ControlPeriod: 1e-3,
		StartSteady:   true,
	})
	if err != nil {
		t.Fatal(err)
	}

	if boostRes.AvgGIPS <= constRes.AvgGIPS {
		t.Errorf("boosting avg GIPS %.1f should exceed constant %.1f",
			boostRes.AvgGIPS, constRes.AvgGIPS)
	}
	if boostRes.PeakPowerW <= constRes.PeakPowerW {
		t.Errorf("boosting peak power %.1f should exceed constant %.1f",
			boostRes.PeakPowerW, constRes.PeakPowerW)
	}
	// Boost oscillates around TDTM: its max temp is at/above the
	// threshold but bounded by the emergency margin.
	if boostRes.MaxTempC < p.TDTM-0.5 {
		t.Errorf("boost max temp %.2f should reach the threshold", boostRes.MaxTempC)
	}
	if boostRes.MaxTempC > p.TDTM+5 {
		t.Errorf("boost max temp %.2f runs away", boostRes.MaxTempC)
	}
	// Constant stays below the threshold throughout.
	if constRes.MaxTempC > p.TDTM {
		t.Errorf("constant max temp %.2f violates TDTM", constRes.MaxTempC)
	}
}

func TestPerAppIslandsCharacterization(t *testing.T) {
	// A hot app (x264) next to a cool one (canneal) under per-placement
	// DVFS islands versus one chip-wide loop. The chip is strongly
	// thermally coupled, so the global constraint acts like a shared
	// power budget; naive islands hand the headroom to whichever app
	// runs coolest — the low-power, low-IPC one — so total GIPS lands
	// within a whisker of global control rather than above it. That is
	// precisely why DsRem pairs per-app levels with a performance-aware
	// allocation (§4); this test pins the characterization.
	if testing.Short() {
		t.Skip("transient co-simulation")
	}
	p := plat(t)
	x, err := apps.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	c, err := apps.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	cores, err := mapping.PeripheryFirst(p.Floorplan, 96)
	if err != nil {
		t.Fatal(err)
	}
	// x264 on the periphery, canneal in the centre.
	plan := &mapping.Plan{NumCores: p.NumCores()}
	for i := 0; i < 6; i++ {
		plan.Placements = append(plan.Placements, mapping.Placement{
			App: x, Cores: cores[i*8 : (i+1)*8], FGHz: 3.0, Threads: 8,
		})
	}
	for i := 6; i < 12; i++ {
		plan.Placements = append(plan.Placements, mapping.Placement{
			App: c, Cores: cores[i*8 : (i+1)*8], FGHz: 3.0, Threads: 8,
		})
	}
	ladder := p.BoostLadder
	start, err := FindConstantLevel(p, plan, ladder, p.TDTM)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Duration: 10, ControlPeriod: 1e-3, StartSteady: true}

	global, err := NewClosed(p.TDTM, start, len(ladder.Points)-1)
	if err != nil {
		t.Fatal(err)
	}
	globalRes, err := sim.Run(p, plan, global, ladder, opts)
	if err != nil {
		t.Fatal(err)
	}

	islands := &islandLoops{levels: make([]int, len(plan.Placements))}
	for range plan.Placements {
		loop, err := NewClosed(p.TDTM, start, len(ladder.Points)-1)
		if err != nil {
			t.Fatal(err)
		}
		islands.loops = append(islands.loops, loop)
	}
	lane := &sim.Lane{
		Plans:       sim.StaticPlan{Plan: plan},
		Ctrl:        islands,
		Ladder:      ladder,
		StartSteady: opts.StartSteady,
	}
	if err := sim.RunLanes(context.Background(), p, []*sim.Lane{lane}, opts); err != nil {
		t.Fatal(err)
	}
	if lane.Err != nil {
		t.Fatal(lane.Err)
	}
	islandRes := lane.Result

	// Islands stay within a few per cent of global control.
	if rel := (globalRes.AvgGIPS - islandRes.AvgGIPS) / globalRes.AvgGIPS; rel > 0.05 || rel < -0.05 {
		t.Errorf("islands %.1f GIPS vs global %.1f GIPS: |gap| should be < 5%%",
			islandRes.AvgGIPS, globalRes.AvgGIPS)
	}
	if islandRes.MaxTempC > p.TDTM+2 {
		t.Errorf("islands overshoot: %.2f °C", islandRes.MaxTempC)
	}
	// Per-placement levels actually diverged (the point of islands).
	final := islands.Start().Levels
	minL, maxL := final[0], final[0]
	for _, l := range final {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if minL == maxL {
		t.Errorf("island levels never diverged: %v", final)
	}
}

// islandLoops drives one closed loop per placement — per-application
// DVFS islands, each reacting to its own placement's hottest core.
type islandLoops struct {
	loops  []*Closed
	levels []int
}

func (c *islandLoops) Start() sim.Decision {
	for i, loop := range c.loops {
		c.levels[i] = loop.Current()
	}
	return sim.Decision{Levels: c.levels}
}

func (c *islandLoops) Next(obs sim.Observation) sim.Decision {
	for i, loop := range c.loops {
		c.levels[i] = loop.Next(obs.PlacementPeakC[i])
	}
	return sim.Decision{Levels: c.levels}
}
