package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"darksim/internal/aging"
	"darksim/internal/apps"
	"darksim/internal/boost"
	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/report"
	"darksim/internal/rotate"
	"darksim/internal/sim"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/tsp"
	"darksim/internal/variability"
	"darksim/internal/vf"
)

// newLadderWithStep builds a non-default-granularity ladder for a
// platform's curve.
func newLadderWithStep(p *core.Platform, stepGHz float64) (*vf.Ladder, error) {
	return vf.NewLadder(p.Curve, vf.LadderOptions{StepGHz: stepGHz})
}

// AblationRegistry lists the ablation studies for the design choices
// DESIGN.md calls out. They are not paper figures; they quantify how much
// each modelling decision matters. None takes a run length.
func AblationRegistry() []Experiment {
	return []Experiment{
		{"ab-rotation", "Spatio-temporal rotation vs static mapping (peak temperature)", false, fixed(AblationRotation)},
		{"ab-grid", "Thermal model grid-resolution sensitivity", false, fixed(AblationGrid)},
		{"ab-holdband", "Boost controller hold-band sensitivity", false, fixed(AblationHoldBand)},
		{"ab-strategy", "Placement strategies: thermally safe core counts", false, cancellable(AblationStrategies)},
		{"ab-ladder", "DVFS ladder granularity vs estimation quality", false, fixed(AblationLadderStep)},
		{"ab-aging", "Aging balance: rotation vs static mapping", false, fixed(AblationAging)},
		{"ab-baseline", "ISCA'11 power-budget baseline vs temperature-aware estimation", false, fixed(Baseline)},
		{"ab-variability", "Variability-aware vs oblivious core selection (DaSim angle)", false, fixed(AblationVariability)},
	}
}

// rotationPolicies are the three mappings the rotation and aging studies
// compare, in row order.
var rotationPolicies = []string{"static contiguous", "static checkerboard", "rotated (2 phases, 1 ms)"}

// rotationStudy is the shared setup of the rotation and aging studies:
// 6 swaptions instances (48 cores) at 3.6 GHz on the 16 nm platform,
// mapped statically contiguous, statically on the checkerboard, and
// rotated across the checkerboard parities every 1 ms — one constant-level
// lane per rotationPolicies entry, to step as one RunLanes batch with a
// 0.5 ms control period.
func rotationStudy() (*core.Platform, *rotate.Schedule, []*sim.Lane, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := apps.ByName("swaptions")
	if err != nil {
		return nil, nil, nil, err
	}
	const instances = 6
	sched, err := rotate.New(p.Floorplan, a, rotate.Options{
		Instances: instances, FGHz: 3.6, Phases: 2, PeriodS: 1e-3,
		Base: mapping.Checkerboard,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	contig, err := mapping.Pack(p.Floorplan, mapping.Contiguous, instances*8, a, 8, 3.6)
	if err != nil {
		return nil, nil, nil, err
	}
	level := p.Ladder.Nearest(3.6)
	var lanes []*sim.Lane
	for _, provider := range []sim.PlanProvider{sim.StaticPlan{Plan: contig}, sim.StaticPlan{Plan: sched.Phases[0]}, sched} {
		lanes = append(lanes, &sim.Lane{
			Plans:  provider,
			Ctrl:   sim.ChipWide(boost.Constant{Level: level}, p.Ladder, instances),
			Ladder: p.Ladder,
		})
	}
	return p, sched, lanes, nil
}

// runRotationStudy steps the rotation study's lanes for durationS and
// returns the first lane failure.
func runRotationStudy(p *core.Platform, lanes []*sim.Lane, durationS float64) error {
	if err := sim.RunLanes(context.Background(), p, lanes, sim.Options{Duration: durationS, ControlPeriod: 0.5e-3}); err != nil {
		return err
	}
	for i, l := range lanes {
		if l.Err != nil {
			return fmt.Errorf("%s: %w", rotationPolicies[i], l.Err)
		}
	}
	return nil
}

// AblationAgingRow is one policy of the aging study.
type AblationAgingRow struct {
	Policy    string
	MaxWearS  float64 // accelerated seconds on the most-aged core
	Imbalance float64 // max/mean wear
}

// AblationAgingResult quantifies how dark-silicon rotation levels
// temperature-driven wear (the Hayat-style reliability angle of §1).
type AblationAgingResult struct {
	Rows     []AblationAgingRow
	Duration float64
}

// AblationAging integrates an Arrhenius wear model over 10 s transients of
// the same workload mapped statically (contiguous, checkerboard) and with
// checkerboard rotation. Rotation both lowers the hottest core's wear and
// levels wear across the chip.
func AblationAging() (*AblationAgingResult, error) {
	p, _, lanes, err := rotationStudy()
	if err != nil {
		return nil, err
	}
	integs := make([]*aging.Integrator, len(lanes))
	for i, l := range lanes {
		integ, err := aging.NewIntegrator(aging.DefaultModel(), p.NumCores())
		if err != nil {
			return nil, err
		}
		integs[i] = integ
		l.Hook = func(pd *sim.Period) error { return integ.Add(0.5e-3, pd.TempsC) }
	}
	res := &AblationAgingResult{Duration: 10}
	if err := runRotationStudy(p, lanes, res.Duration); err != nil {
		return nil, err
	}
	for i, integ := range integs {
		maxWear, _ := integ.MaxWear()
		res.Rows = append(res.Rows, AblationAgingRow{
			Policy: rotationPolicies[i], MaxWearS: maxWear, Imbalance: integ.Imbalance(),
		})
	}
	return res, nil
}

// Tables implements Renderer.
func (r *AblationAgingResult) Tables() []*report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: wear balancing (6× swaptions @3.6 GHz, 16 nm, %.0f s, Arrhenius Ea=0.8 eV)", r.Duration),
		Columns: []string{"policy", "max wear [acc. s]", "imbalance (max/mean)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy, fmt.Sprintf("%.2f", row.MaxWearS), fmt.Sprintf("%.2f", row.Imbalance))
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *AblationAgingResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// AblationRotationRow is one mapping policy of the rotation study.
type AblationRotationRow struct {
	Policy   string
	AvgGIPS  float64
	MaxTempC float64
}

// AblationRotationResult compares static mappings against rotation at
// identical instantaneous active-core count and frequency.
type AblationRotationResult struct {
	Rows    []AblationRotationRow
	PeriodS float64
}

// AblationRotation runs 6 swaptions instances (48 cores) at 3.6 GHz for
// 10 s under three policies: static contiguous, static checkerboard, and
// checkerboard-parity rotation with a 1 ms period.
func AblationRotation() (*AblationRotationResult, error) {
	p, sched, lanes, err := rotationStudy()
	if err != nil {
		return nil, err
	}
	if err := runRotationStudy(p, lanes, 10); err != nil {
		return nil, err
	}
	res := &AblationRotationResult{PeriodS: sched.PeriodS}
	for i, l := range lanes {
		res.Rows = append(res.Rows, AblationRotationRow{
			Policy: rotationPolicies[i], AvgGIPS: l.Result.AvgGIPS, MaxTempC: l.Result.MaxTempC,
		})
	}
	return res, nil
}

// Tables implements Renderer.
func (r *AblationRotationResult) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Ablation: spatio-temporal rotation (6× swaptions @3.6 GHz, 16 nm, 10 s)",
		Columns: []string{"policy", "avg GIPS", "max temp [°C]"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy, fmt.Sprintf("%.1f", row.AvgGIPS), fmt.Sprintf("%.2f", row.MaxTempC))
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *AblationRotationResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// AblationGridRow is one resolution of the grid study.
type AblationGridRow struct {
	SpreaderN int
	SinkN     int
	Nodes     int
	PeakC     float64
	BuildSec  float64
}

// AblationGridResult quantifies the spreader/sink grid-resolution choice.
type AblationGridResult struct {
	Rows []AblationGridRow
}

// AblationGrid evaluates the reference workload (52 contiguous cores at
// 3.77 W, the Fig. 8 operating point) at several spreader/sink grid
// resolutions, reporting the peak temperature and the model build time.
// The default (8×8 spreader, 10×10 sink) should sit within a fraction of
// a degree of the finest grid.
func AblationGrid() (*AblationGridResult, error) {
	fp, err := core.NewPlatform(tech.Node16)
	if err != nil {
		return nil, err
	}
	power := make([]float64, 100)
	for i := 0; i < 52; i++ {
		power[i] = 3.77
	}
	res := &AblationGridResult{}
	for _, n := range []int{2, 4, 8, 16} {
		cfg := thermal.DefaultConfig(fp.Floorplan.DieW, fp.Floorplan.DieH, 10, 10)
		cfg.Layers[2].Nx, cfg.Layers[2].Ny = n, n
		cfg.Layers[3].Nx, cfg.Layers[3].Ny = n+2, n+2
		start := time.Now()
		m, err := thermal.NewModel(fp.Floorplan, cfg)
		if err != nil {
			return nil, err
		}
		build := time.Since(start).Seconds()
		peak, _, err := m.PeakSteadyState(power)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationGridRow{
			SpreaderN: n, SinkN: n + 2, Nodes: m.NumNodes(), PeakC: peak, BuildSec: build,
		})
	}
	return res, nil
}

// Tables implements Renderer.
func (r *AblationGridResult) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Ablation: spreader/sink grid resolution (52 cores × 3.77 W, 16 nm)",
		Columns: []string{"spreader", "sink", "RC nodes", "peak [°C]", "build [s]"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%dx%d", row.SpreaderN, row.SpreaderN),
			fmt.Sprintf("%dx%d", row.SinkN, row.SinkN),
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.2f", row.PeakC),
			fmt.Sprintf("%.3f", row.BuildSec))
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *AblationGridResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// AblationHoldBandRow is one hold-band setting.
type AblationHoldBandRow struct {
	BandC      float64
	AvgGIPS    float64
	MaxTempC   float64
	OvershootC float64
	DTMEvents  int
}

// AblationHoldBandResult quantifies the closed-loop hold band.
type AblationHoldBandResult struct {
	Rows []AblationHoldBandRow
	TDTM float64
}

// AblationHoldBand runs the Fig. 11 workload for 5 s with hold bands of
// 0, 0.2 (default), 0.5 and 1.0 °C, reporting overshoot above TDTM and
// average performance. Band 0 overshoots until the DTM guard trips; wide
// bands give up boost headroom.
func AblationHoldBand() (*AblationHoldBandResult, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, err
	}
	x, err := apps.ByName("x264")
	if err != nil {
		return nil, err
	}
	plan, err := mapping.Pack(p.Floorplan, mapping.PeripheryFirst, 12*8, x, 8, 3.0)
	if err != nil {
		return nil, err
	}
	constLevel, err := boost.FindConstantLevel(p, plan, p.BoostLadder, p.TDTM)
	if err != nil {
		return nil, err
	}
	bands := []float64{0, 0.2, 0.5, 1.0}
	runs := make([]sim.BatchRun, len(bands))
	for i, band := range bands {
		ctrl, err := boost.NewClosed(p.TDTM, constLevel, len(p.BoostLadder.Points)-1)
		if err != nil {
			return nil, err
		}
		ctrl.HoldBandC = band
		runs[i] = sim.BatchRun{Plan: plan, Ctrl: ctrl}
	}
	results, err := sim.RunBatch(context.Background(), p, runs, p.BoostLadder, sim.Options{
		Duration:      5,
		ControlPeriod: 1e-3,
		StartSteady:   true,
	})
	if err != nil {
		return nil, err
	}
	res := &AblationHoldBandResult{TDTM: p.TDTM}
	for i, r := range results {
		over := r.MaxTempC - p.TDTM
		if over < 0 {
			over = 0
		}
		res.Rows = append(res.Rows, AblationHoldBandRow{
			BandC: bands[i], AvgGIPS: r.AvgGIPS, MaxTempC: r.MaxTempC,
			OvershootC: over, DTMEvents: r.DTMEvents,
		})
	}
	return res, nil
}

// Tables implements Renderer.
func (r *AblationHoldBandResult) Tables() []*report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: boost hold band (12× x264 @16nm, TDTM = %.0f °C, 5 s)", r.TDTM),
		Columns: []string{"band [°C]", "avg GIPS", "max temp [°C]", "overshoot [°C]", "DTM events"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.1f", row.BandC),
			fmt.Sprintf("%.1f", row.AvgGIPS),
			fmt.Sprintf("%.2f", row.MaxTempC),
			fmt.Sprintf("%.2f", row.OvershootC),
			fmt.Sprintf("%d", row.DTMEvents))
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *AblationHoldBandResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// AblationStrategyRow is one placement strategy.
type AblationStrategyRow struct {
	Strategy  string
	SafeCores int
	TSPatMax  float64 // mapping-specific TSP at that core count, W
}

// AblationStrategiesResult compares placement strategies.
type AblationStrategiesResult struct {
	Rows []AblationStrategyRow
	FGHz float64
}

// AblationStrategies reports, per placement strategy, the maximum number
// of swaptions cores that stay below TDTM at 3.6 GHz, plus the uniform
// TSP budget of that strategy's placement — the quantitative version of
// Figure 8's patterning argument.
func AblationStrategies(ctx context.Context) (*AblationStrategiesResult, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, err
	}
	a, err := apps.ByName("swaptions")
	if err != nil {
		return nil, err
	}
	calc, err := tsp.New(p.Thermal, p.TDTM)
	if err != nil {
		return nil, err
	}
	res := &AblationStrategiesResult{FGHz: 3.6}
	names := []string{"contiguous", "checkerboard", "periphery", "maxspread"}
	strategies := mapping.Strategies()
	// One incremental TSP updater serves every strategy: consecutive
	// placements overlap heavily, so SetActive applies row-sum deltas
	// for the membership changes instead of rebuilding each set.
	upd, err := calc.Incremental(ctx)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		strat := strategies[name]
		n, err := p.MaxCoresUnderTemp(a, res.FGHz, strat)
		if err != nil {
			return nil, err
		}
		row := AblationStrategyRow{Strategy: name, SafeCores: n}
		if n > 0 {
			cores, err := strat(p.Floorplan, n)
			if err != nil {
				return nil, err
			}
			if err := upd.SetActive(cores); err != nil {
				return nil, err
			}
			if row.TSPatMax, err = upd.TSP(); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, row)
	}
	// The TSP best-case greedy as an upper-bound reference.
	bestBudget, bestCores, err := calc.BestCase(ctx, 61)
	if err != nil {
		return nil, err
	}
	_ = bestCores
	res.Rows = append(res.Rows, AblationStrategyRow{
		Strategy: "tsp-greedy (61 cores)", SafeCores: 61, TSPatMax: bestBudget,
	})
	return res, nil
}

// Tables implements Renderer.
func (r *AblationStrategiesResult) Tables() []*report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: placement strategies (swaptions @%.1f GHz, 16 nm, TDTM 80 °C)", r.FGHz),
		Columns: []string{"strategy", "max safe cores", "TSP at that mapping [W/core]"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Strategy, fmt.Sprintf("%d", row.SafeCores), fmt.Sprintf("%.2f", row.TSPatMax))
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *AblationStrategiesResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// AblationLadderRow is one DVFS step granularity.
type AblationLadderRow struct {
	StepGHz  float64
	Levels   int
	BestGIPS float64
	BestFGHz float64
}

// AblationLadderResult quantifies the 0.2 GHz ladder-step choice.
type AblationLadderResult struct {
	Rows []AblationLadderRow
}

// AblationLadderStep re-runs the scenario-2 operating-point search for
// x264 (12 instances, 16 nm) with coarser and finer ladders under a tight
// 100 W budget, where the chosen frequency sits strictly inside the
// ladder. The paper's 0.2 GHz step should cost little against a 0.05 GHz
// ladder.
func AblationLadderStep() (*AblationLadderResult, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, err
	}
	x, err := apps.ByName("x264")
	if err != nil {
		return nil, err
	}
	res := &AblationLadderResult{}
	for _, step := range []float64{0.05, 0.1, 0.2, 0.4} {
		ladder, err := newLadderWithStep(p, step)
		if err != nil {
			return nil, err
		}
		// Shallow platform copy with the alternative ladder; the search
		// only reads the platform.
		alt := *p
		alt.Ladder = ladder
		cfg, err := alt.BestDVFSConfig(x, 12, 100)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationLadderRow{
			StepGHz: step, Levels: len(ladder.Points), BestGIPS: cfg.GIPS, BestFGHz: cfg.FGHz,
		})
	}
	return res, nil
}

// Tables implements Renderer.
func (r *AblationLadderResult) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Ablation: DVFS ladder granularity (x264, 12 instances, 100 W, 16 nm)",
		Columns: []string{"step [GHz]", "levels", "best GIPS", "best f [GHz]"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2f", row.StepGHz),
			fmt.Sprintf("%d", row.Levels),
			fmt.Sprintf("%.1f", row.BestGIPS),
			fmt.Sprintf("%.2f", row.BestFGHz))
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *AblationLadderResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// AblationVariabilityRow is one policy of the variability study.
type AblationVariabilityRow struct {
	Policy      string
	TotalPowerW float64
	PeakC       float64
	MeanLeakMul float64 // mean leakage multiplier of the selected cores
}

// AblationVariabilityResult compares variability-oblivious and
// variability-aware core selection (the DaSim angle of §4).
type AblationVariabilityResult struct {
	Rows []AblationVariabilityRow
}

// AblationVariability generates a deterministic within-die variation map
// (lognormal leakage, σ = 0.25, half systematic) and maps 7 swaptions
// instances (56 cores) at 3.6 GHz twice: with the standard periphery
// patterning and with the variability-aware selection that blends thermal
// position with the leakage map. Same performance; the aware mapping
// spends less leakage power while staying thermally comparable.
func AblationVariability() (*AblationVariabilityResult, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, err
	}
	a, err := apps.ByName("swaptions")
	if err != nil {
		return nil, err
	}
	vmap, err := variability.Generate(p.Floorplan, variability.Options{Seed: 2015})
	if err != nil {
		return nil, err
	}
	// Nominal leakage share of the operating point, from Equation (1).
	model, err := a.ModelFor(p.Node)
	if err != nil {
		return nil, err
	}
	vdd, err := p.Curve.VoltageFor(3.6)
	if err != nil {
		return nil, err
	}
	leakW := model.Leak.Power(vdd, p.TDTM)

	res := &AblationVariabilityResult{}
	run := func(label string, strat mapping.Strategy) error {
		plan, err := mapping.Pack(p.Floorplan, strat, 7*8, a, 8, 3.6)
		if err != nil {
			return err
		}
		power, err := p.PlanPower(plan, p.TDTM, core.BusyWait)
		if err != nil {
			return err
		}
		if err := vmap.ApplyLeak(power, leakW); err != nil {
			return err
		}
		peak, _, err := p.Thermal.PeakSteadyState(power)
		if err != nil {
			return err
		}
		var total, mulSum float64
		nActive := 0
		for c, w := range power {
			total += w
			if w > 0 {
				mulSum += vmap.LeakMult[c]
				nActive++
			}
		}
		res.Rows = append(res.Rows, AblationVariabilityRow{
			Policy:      label,
			TotalPowerW: total,
			PeakC:       peak,
			MeanLeakMul: mulSum / float64(nActive),
		})
		return nil
	}
	if err := run("oblivious (periphery)", mapping.PeripheryFirst); err != nil {
		return nil, err
	}
	if err := run("variability-aware", vmap.AwareStrategy(mapping.PeripheryFirst)); err != nil {
		return nil, err
	}
	return res, nil
}

// Tables implements Renderer.
func (r *AblationVariabilityResult) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Ablation: variability-aware core selection (7× swaptions @3.6 GHz, 16 nm, σ_leak = 0.25)",
		Columns: []string{"policy", "total power [W]", "peak [°C]", "mean leak multiplier"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy,
			fmt.Sprintf("%.1f", row.TotalPowerW),
			fmt.Sprintf("%.2f", row.PeakC),
			fmt.Sprintf("%.3f", row.MeanLeakMul))
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *AblationVariabilityResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }
