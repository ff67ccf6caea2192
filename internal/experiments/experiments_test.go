package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"darksim/internal/core"
	"darksim/internal/runner"
	"darksim/internal/sim"
	"darksim/internal/tech"
)

func renderOK(t *testing.T, r Renderer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatalf("Render produced no output")
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 14 {
		t.Fatalf("registry has %d experiments, want 14 (fig1–fig14)", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, err := ByID("fig5"); err != nil {
		t.Errorf("ByID(fig5): %v", err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Errorf("unknown id should error")
	}
}

func TestFig1MatchesPaperTable(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Specs) != 4 {
		t.Fatalf("specs = %d", len(r.Specs))
	}
	if r.Specs[0].Node != tech.Node22 || r.Specs[3].Node != tech.Node8 {
		t.Errorf("node order wrong")
	}
	out := renderOK(t, r)
	for _, want := range []string{"22nm", "8nm", "0.74", "2.30", "0.15"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestFig2RegionsOrdered(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// Regions must appear in NTC → STC → Boost order along the sweep.
	last := -1
	for _, reg := range r.Region {
		if int(reg) < last {
			t.Fatalf("region order broken")
		}
		last = int(reg)
	}
	// Frequency monotone in voltage.
	for i := 1; i < len(r.FGHz); i++ {
		if r.FGHz[i] < r.FGHz[i-1] {
			t.Fatalf("frequency not monotone at %d", i)
		}
	}
	renderOK(t, r)
}

func TestFig3FitQuality(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// The model must track the samples closely (Figure 3's visual claim).
	if r.RMSErrorW > 0.6 {
		t.Errorf("RMS error %.3f W too large", r.RMSErrorW)
	}
	// Fit close to the catalog's ground truth (1.85 nF).
	if r.CeffNF < 1.6 || r.CeffNF > 2.1 {
		t.Errorf("fitted Ceff = %.3f nF", r.CeffNF)
	}
	// Peak power ≈15 W at 4 GHz (the figure's y-range).
	top := r.Rows[len(r.Rows)-1]
	if top.PowerW < 10 || top.PowerW > 20 {
		t.Errorf("x264 @4GHz = %.1f W", top.PowerW)
	}
	renderOK(t, r)
}

func TestFig4ParallelismWall(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// All curves within the figure's 1–3.5 band and canneal the lowest.
	for _, app := range r.Apps {
		for i, s := range r.Speedup[app] {
			if s < 1 || s > 3.5 {
				t.Errorf("%s S(%d) = %.2f", app, r.Threads[i], s)
			}
		}
	}
	for i := range r.Threads {
		if r.Speedup["canneal"][i] >= r.Speedup["x264"][i] {
			t.Errorf("canneal should scale worst")
		}
	}
	renderOK(t, r)
}

func TestFig5Observation1(t *testing.T) {
	// Observation 1: the optimistic TDP underestimates dark silicon
	// (thermal violations at fmax); the pessimistic TDP overestimates it
	// (no violations, thermal headroom wasted).
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	violations220 := 0
	for _, peak := range r.PeakTemps[220] {
		if peak > r.TDTM {
			violations220++
		}
	}
	if violations220 == 0 {
		t.Errorf("220 W should cause thermal violations for hungry apps")
	}
	for app, peak := range r.PeakTemps[185] {
		if peak > r.TDTM {
			t.Errorf("185 W should be thermally safe; %s peaks at %.1f", app, peak)
		}
	}
	// Headline dark-silicon levels: ≈37–45 % at 220 W, ≈46–52 % at 185 W.
	if r.MaxDark[220] < 0.30 || r.MaxDark[220] > 0.48 {
		t.Errorf("max dark @220W = %.0f%%", 100*r.MaxDark[220])
	}
	if r.MaxDark[185] < 0.42 || r.MaxDark[185] > 0.55 {
		t.Errorf("max dark @185W = %.0f%%", 100*r.MaxDark[185])
	}
	// Observation 2: dark silicon shrinks monotonically as v/f drops.
	for _, tdp := range r.TDPs {
		perApp := map[string][]float64{}
		for _, c := range r.Cells[tdp] {
			perApp[c.App] = append(perApp[c.App], c.DarkPercent)
		}
		for app, darks := range perApp {
			for i := 1; i < len(darks); i++ {
				if darks[i] < darks[i-1]-1e-9 {
					t.Errorf("%s @%g W: dark silicon should grow with frequency", app, tdp)
				}
			}
		}
	}
	renderOK(t, r)
}

func TestFig6TemperatureConstraintWins(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range r.Nodes {
		for _, row := range r.Rows[node] {
			if row.ActiveTemp < row.ActiveTDP-1e-9 {
				t.Errorf("%s/%s: temperature constraint admits fewer cores", node, row.App)
			}
		}
		if r.AvgReduction[node] < 15 {
			t.Errorf("%s: average dark reduction %.0f%% too small vs paper's 32–40%%",
				node, r.AvgReduction[node])
		}
	}
	renderOK(t, r)
}

func TestFig7DVFSAlwaysImproves(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range r.Nodes {
		for _, row := range r.Rows[node] {
			if row.Scenario2GIPS < row.Scenario1GIPS-1e-6 {
				t.Errorf("%s/%s: scenario 2 (%.1f) worse than scenario 1 (%.1f)",
					node, row.App, row.Scenario2GIPS, row.Scenario1GIPS)
			}
		}
		if r.MaxGain[node] < 10 {
			t.Errorf("%s: max gain %.0f%% too small", node, r.MaxGain[node])
		}
	}
	// TLP/ILP story: x264 (high ILP, low TLP) ends with fewer threads
	// than blackscholes (high TLP) at 16 nm.
	var x264Threads, bsThreads int
	for _, row := range r.Rows[tech.Node16] {
		switch row.App {
		case "x264":
			x264Threads = row.Threads2
		case "blackscholes":
			bsThreads = row.Threads2
		}
	}
	if x264Threads >= bsThreads {
		t.Errorf("x264 threads (%d) should be below blackscholes (%d)", x264Threads, bsThreads)
	}
	renderOK(t, r)
}

func TestFig8PatterningStory(t *testing.T) {
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 8: contiguous mapping of N cores violates TDTM
	// while a patterned mapping of the same N does not, and patterning
	// admits clearly more cores (paper: 52 vs 60).
	if !(r.ContigViolation.PeakC > r.TDTM) {
		t.Errorf("contiguous mapping should violate TDTM: %.1f", r.ContigViolation.PeakC)
	}
	if r.PatternOK.PeakC > r.TDTM {
		t.Errorf("patterned mapping should be safe: %.1f", r.PatternOK.PeakC)
	}
	if r.PatternedMax <= r.ContiguousMax {
		t.Errorf("patterning should admit more cores: %d vs %d", r.PatternedMax, r.ContiguousMax)
	}
	if r.ContiguousMax < 40 || r.ContiguousMax > 60 {
		t.Errorf("contiguous max %d far from the paper's ≈52", r.ContiguousMax)
	}
	if r.PatternedMax < 55 || r.PatternedMax > 70 {
		t.Errorf("patterned max %d far from the paper's ≈60", r.PatternedMax)
	}
	renderOK(t, r)
}

func TestFig9DsRemBeatsTDPmap(t *testing.T) {
	r, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.SpeedupFactor < 1 {
			t.Errorf("%s: DsRem slower than TDPmap (%.2fx)", row.Mix, row.SpeedupFactor)
		}
	}
	if r.MaxSpeedup < 1.2 {
		t.Errorf("max speedup %.2fx too small vs the paper's ≈2x", r.MaxSpeedup)
	}
	renderOK(t, r)
}

func TestFig10TSPScalingTrend(t *testing.T) {
	r, err := Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Performance keeps increasing with newer nodes despite growing dark
	// silicon (the figure's headline), and the 11→8 nm step is large.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].TotalGIPS <= r.Rows[i-1].TotalGIPS {
			t.Errorf("GIPS should grow per node: %v", r.Rows)
		}
	}
	inc := (r.Rows[2].TotalGIPS - r.Rows[1].TotalGIPS) / r.Rows[1].TotalGIPS
	if inc < 0.3 || inc > 1.0 {
		t.Errorf("11->8 nm increase %.0f%% far from the paper's ≈60%%", 100*inc)
	}
	// TSP per-core budget decreases with active-core count across nodes.
	if !(r.Rows[0].TSPPerCoreW > r.Rows[1].TSPPerCoreW && r.Rows[1].TSPPerCoreW > r.Rows[2].TSPPerCoreW) {
		t.Errorf("TSP budgets should fall: %v", r.Rows)
	}
	renderOK(t, r)
}

func TestFig11Observation3(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiment")
	}
	r, err := Fig11(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Observation 3: boosting yields a (slightly) higher average
	// performance while oscillating at the threshold; constant stays
	// below it.
	if r.AvgBoost <= r.AvgConst {
		t.Errorf("boost avg %.1f should beat constant %.1f", r.AvgBoost, r.AvgConst)
	}
	if gain := (r.AvgBoost - r.AvgConst) / r.AvgConst; gain > 0.15 {
		t.Errorf("boost gain %.0f%% implausibly large", 100*gain)
	}
	if r.Boost.MaxTempC < r.TDTM-0.5 || r.Boost.MaxTempC > r.TDTM+3 {
		t.Errorf("boost should oscillate around TDTM; max %.2f", r.Boost.MaxTempC)
	}
	if r.Constant.MaxTempC > r.TDTM {
		t.Errorf("constant should stay below TDTM; max %.2f", r.Constant.MaxTempC)
	}
	renderOK(t, r)
}

func TestFig12BoostCostsPower(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiment")
	}
	r, err := Fig12(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// GIPS grows with active cores; boost matches or beats constant on
	// GIPS and costs at least as much peak power.
	for i, pt := range r.Points {
		if pt.BoostGIPS < pt.ConstGIPS-1e-6 {
			t.Errorf("cores=%d: boost GIPS below constant", pt.ActiveCores)
		}
		if pt.BoostPowerW < pt.ConstPowerW-1e-6 {
			t.Errorf("cores=%d: boost peak power below constant", pt.ActiveCores)
		}
		if i > 0 && pt.ConstGIPS <= r.Points[i-1].ConstGIPS {
			t.Errorf("constant GIPS should grow with cores")
		}
	}
	renderOK(t, r)
}

func TestFig13STCRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiment")
	}
	r, err := Fig13(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 14 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Observation 4 evidence: the minimum utilized voltage across all
	// scenarios remains in the STC region.
	if r.Region.String() != "STC" {
		t.Errorf("minimum V/f %.2f V should be STC, got %v", r.MinVdd, r.Region)
	}
	for _, row := range r.Rows {
		if row.BoostGIPS < row.ConstGIPS-1e-6 {
			t.Errorf("%s/%d: boost below constant", row.App, row.Instances)
		}
	}
	renderOK(t, r)
}

func TestFig14NTCStory(t *testing.T) {
	r, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 || len(r.Ablation) != 7 {
		t.Fatalf("rows = %d, ablation = %d", len(r.Rows), len(r.Ablation))
	}
	// Canneal is by far the worst NTC citizen (the paper's explicit
	// example of an app that "does not scale well with more threads").
	var canneal, best Fig14Row
	best = r.Rows[0]
	for _, row := range r.Rows {
		if row.App == "canneal" {
			canneal = row
		}
		if row.NTCEnergyKJ/row.STC1EnergyKJ < best.NTCEnergyKJ/best.STC1EnergyKJ {
			best = row
		}
	}
	if canneal.App == "" {
		t.Fatal("canneal missing")
	}
	cannealPenalty := canneal.NTCEnergyKJ / canneal.STC1EnergyKJ
	bestPenalty := best.NTCEnergyKJ / best.STC1EnergyKJ
	if cannealPenalty <= bestPenalty {
		t.Errorf("canneal should be the worst NTC case: %.2f vs best %.2f", cannealPenalty, bestPenalty)
	}
	// Gating always saves energy vs busy-wait.
	for _, row := range r.Rows {
		if row.NTCEnergyKJ >= row.BusyWaitNTCEnergyKJ {
			t.Errorf("%s: gated energy should be below busy-wait", row.App)
		}
	}
	// The ideal-TLP ablation shows the NTC-wins regime for every app.
	for _, ab := range r.Ablation {
		if !ab.NTCWins {
			t.Errorf("%s: ideal-TLP NTC should win on energy", ab.App)
		}
	}
	// The NTC voltage is genuinely near threshold.
	if r.NTCVdd > 0.6 {
		t.Errorf("NTC voltage %.2f V not in NTC region", r.NTCVdd)
	}
	renderOK(t, r)
}

// resetPlatformCache empties the shared platform cache (tests only).
func resetPlatformCache() { ResetPlatforms() }

func TestPlatformForBuildsDistinctKeysConcurrently(t *testing.T) {
	oldBuild := buildPlatform
	resetPlatformCache()
	defer func() {
		buildPlatform = oldBuild
		resetPlatformCache()
	}()

	var mu sync.Mutex
	active, peak, builds := 0, 0, 0
	buildPlatform = func(node tech.Node, cores int) (*core.Platform, error) {
		mu.Lock()
		builds++
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		time.Sleep(100 * time.Millisecond) // a deliberately slow "Cholesky"
		mu.Lock()
		active--
		mu.Unlock()
		return &core.Platform{}, nil
	}

	keys := []struct {
		node  tech.Node
		cores int
	}{
		{tech.Node22, 4}, {tech.Node16, 4}, {tech.Node22, 4}, {tech.Node16, 4},
	}
	got := make([]*core.Platform, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, node tech.Node, cores int) {
			defer wg.Done()
			p, err := platformFor(node, cores)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
		}(i, k.node, k.cores)
	}
	wg.Wait()

	if builds != 2 {
		t.Errorf("builds = %d, want 2: duplicate keys must share one build", builds)
	}
	if peak < 2 {
		t.Errorf("peak concurrent builds = %d, want 2: distinct keys must build in parallel", peak)
	}
	if got[0] != got[2] || got[1] != got[3] {
		t.Errorf("requests for the same key must return the same platform")
	}
	if got[0] == got[1] {
		t.Errorf("distinct keys must not share a platform")
	}
}

func TestBoostOptionsValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func() error
	}{
		{"fig11 negative duration", func() error { _, err := Fig11(ctx, -5); return err }},
		{"fig11 below one control period", func() error { _, err := Fig11(ctx, 1e-300); return err }},
		{"fig12 negative duration", func() error { _, err := Fig12(ctx, -1); return err }},
		{"fig12 below one control period", func() error { _, err := Fig12(ctx, 0.0001); return err }},
		{"fig13 negative duration", func() error { _, err := Fig13(ctx, -1); return err }},
		{"fig13 below one control period", func() error { _, err := Fig13(ctx, 1e-9); return err }},
		{"fig13 over the longest transient", func() error { _, err := Fig13(ctx, 1e9); return err }},
		{"fig11 just over its default", func() error { return CheckDuration("fig11", maxDurationS+1e-9) }},
	}
	for _, tc := range cases {
		err := tc.run()
		if !errors.Is(err, ErrOptions) {
			t.Errorf("%s: err = %v, want ErrOptions", tc.name, err)
		}
	}
	// Zero still means "use default", one control period is the shortest
	// run, and Figure 11's 100 s default the longest.
	for _, d := range []float64{0, sim.ControlPeriodS, maxDurationS} {
		if err := CheckDuration("fig12", d); err != nil {
			t.Errorf("duration %g rejected: %v", d, err)
		}
	}
}

func TestFig12CancelledContextNamesSweepPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fig12(ctx, 0.1)
	if err == nil {
		t.Fatal("cancelled context must abort the sweep")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "fig12") || !strings.Contains(err.Error(), "active cores") {
		t.Errorf("error %q does not identify the failing sweep point", err)
	}
}

func TestFig13CancelledContextNamesScenario(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fig13(ctx, 0.1)
	if err == nil {
		t.Fatal("cancelled context must abort the sweep")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	if !strings.Contains(err.Error(), "fig13") || !strings.Contains(err.Error(), "instances") {
		t.Errorf("error %q does not identify the failing scenario", err)
	}
}

// usePlatformCache swaps in an empty platform cache of the given
// capacity for the rest of the test.
func usePlatformCache(t *testing.T, capacity int) {
	t.Helper()
	prev := platforms
	platforms = runner.NewCache[platformKey, *core.Platform](capacity, 0, nil)
	t.Cleanup(func() { platforms = prev })
}

// countingBuilds swaps buildPlatform for a cheap counting stub behind an
// empty default-capacity cache for the rest of the test.
func countingBuilds(t *testing.T, builds *int) {
	t.Helper()
	oldBuild := buildPlatform
	usePlatformCache(t, DefaultPlatformCacheCap)
	buildPlatform = func(node tech.Node, cores int) (*core.Platform, error) {
		*builds++
		return &core.Platform{}, nil
	}
	t.Cleanup(func() { buildPlatform = oldBuild })
}

func mustPlatform(t *testing.T, node tech.Node, cores int) *core.Platform {
	t.Helper()
	p, err := platformFor(node, cores)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformCacheCapEvictsLRU(t *testing.T) {
	builds := 0
	countingBuilds(t, &builds)
	usePlatformCache(t, 2)

	a := mustPlatform(t, tech.Node22, 1)
	mustPlatform(t, tech.Node22, 2)
	mustPlatform(t, tech.Node22, 1) // touch A: B becomes least recently used
	mustPlatform(t, tech.Node22, 3) // evicts B
	if n := PlatformCacheLen(); n != 2 {
		t.Errorf("cache len = %d, want 2 (capped)", n)
	}
	if builds != 3 {
		t.Fatalf("builds = %d, want 3", builds)
	}
	if got := mustPlatform(t, tech.Node22, 1); got != a || builds != 3 {
		t.Errorf("recently used key must stay cached (builds = %d)", builds)
	}
	mustPlatform(t, tech.Node22, 2)
	if builds != 4 {
		t.Errorf("evicted key must rebuild: builds = %d, want 4", builds)
	}
}

func TestResetPlatformsForcesRebuild(t *testing.T) {
	builds := 0
	countingBuilds(t, &builds)

	mustPlatform(t, tech.Node22, 1)
	mustPlatform(t, tech.Node22, 1)
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 before reset", builds)
	}
	ResetPlatforms()
	if n := PlatformCacheLen(); n != 0 {
		t.Errorf("cache len after reset = %d, want 0", n)
	}
	mustPlatform(t, tech.Node22, 1)
	if builds != 2 {
		t.Errorf("builds = %d, want 2 after reset", builds)
	}
}

// TestPlatformForDoesNotCacheBuildError pins that a failed build is
// returned but not stored: the next call for the same key builds again
// and gets the platform.
func TestPlatformForDoesNotCacheBuildError(t *testing.T) {
	builds := 0
	countingBuilds(t, &builds)
	okBuild := buildPlatform
	buildPlatform = func(node tech.Node, cores int) (*core.Platform, error) {
		if builds == 0 {
			builds++
			return nil, errors.New("transient build failure")
		}
		return okBuild(node, cores)
	}
	if _, err := platformFor(tech.Node22, 1); err == nil {
		t.Fatal("first build: want the injected error")
	}
	p, err := platformFor(tech.Node22, 1)
	if err != nil || p == nil {
		t.Fatalf("second build: platform %v, err %v; a build error must not be cached", p, err)
	}
	if builds != 2 {
		t.Errorf("builds = %d, want 2", builds)
	}
}

func TestPublicPlatformFor(t *testing.T) {
	p, err := PlatformFor(tech.Node16, CoresForNode(tech.Node16))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCores() != 100 {
		t.Errorf("16nm platform has %d cores, want 100", p.NumCores())
	}
}
