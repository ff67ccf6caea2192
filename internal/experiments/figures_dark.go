package experiments

import (
	"context"
	"fmt"
	"io"

	"darksim/internal/apps"
	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/metrics"
	"darksim/internal/report"
	"darksim/internal/tech"
	"darksim/internal/tsp"
)

// Fig5Cell is one bar of Figure 5: an application at one v/f level under
// one TDP value.
type Fig5Cell struct {
	App           string
	FGHz          float64
	ActivePercent float64
	DarkPercent   float64
}

// Fig5Result reproduces both halves of Figure 5 (TDP = 220 W and 185 W at
// 16 nm, 100 cores, 8 threads per instance) including the peak
// temperatures at the maximum v/f level.
type Fig5Result struct {
	TDPs      []float64 // {220, 185}
	Freqs     []float64 // {2.8 … 3.6}
	Cells     map[float64][]Fig5Cell
	PeakTemps map[float64]map[string]float64 // TDP -> app -> °C at fmax
	TDTM      float64
	MaxDark   map[float64]float64 // TDP -> max dark fraction over apps at fmax
}

// Fig5 runs the sweep.
func Fig5() (*Fig5Result, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		TDPs:      []float64{220, 185},
		Freqs:     []float64{2.8, 3.0, 3.2, 3.4, 3.6},
		Cells:     map[float64][]Fig5Cell{},
		PeakTemps: map[float64]map[string]float64{},
		TDTM:      p.TDTM,
		MaxDark:   map[float64]float64{},
	}
	for _, tdp := range res.TDPs {
		res.PeakTemps[tdp] = map[string]float64{}
		for _, a := range paperOrder() {
			for _, f := range res.Freqs {
				est, err := p.DarkSiliconUnderTDP(a, tdp, f)
				if err != nil {
					return nil, err
				}
				res.Cells[tdp] = append(res.Cells[tdp], Fig5Cell{
					App:           a.Name,
					FGHz:          f,
					ActivePercent: est.Summary.ActivePercent(),
					DarkPercent:   100 * est.Summary.DarkFraction(),
				})
				if f == res.Freqs[len(res.Freqs)-1] {
					res.PeakTemps[tdp][a.Name] = est.Summary.PeakTempC
					if d := est.Summary.DarkFraction(); d > res.MaxDark[tdp] {
						res.MaxDark[tdp] = d
					}
				}
			}
		}
	}
	return res, nil
}

// tablesFor builds the activity and peak-temperature tables of one TDP
// half of the figure.
func (r *Fig5Result) tablesFor(tdp float64) []*report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 5: %% active cores, 16 nm, TDP = %.0f W, TDTM = %.0f °C", tdp, r.TDTM),
		Columns: append([]string{"app"}, floatHeaders(r.Freqs, "%.1f GHz")...),
	}
	perApp := map[string][]float64{}
	var order []string
	for _, c := range r.Cells[tdp] {
		if _, ok := perApp[c.App]; !ok {
			order = append(order, c.App)
		}
		perApp[c.App] = append(perApp[c.App], c.ActivePercent)
	}
	for _, app := range order {
		t.AddFloatRow(app, 0, perApp[app]...)
	}
	pt := &report.Table{
		Title:   fmt.Sprintf("Peak temperature at %.1f GHz (TDP = %.0f W)", r.Freqs[len(r.Freqs)-1], tdp),
		Columns: []string{"app", "peak [°C]", "violates TDTM"},
	}
	for _, app := range order {
		peak := r.PeakTemps[tdp][app]
		pt.AddRow(app, fmt.Sprintf("%.1f", peak), fmt.Sprintf("%v", peak > r.TDTM))
	}
	pt.AddNote("max dark silicon at fmax: %.0f%%", 100*r.MaxDark[tdp])
	return []*report.Table{t, pt}
}

// Tables implements Renderer.
func (r *Fig5Result) Tables() []*report.Table {
	var out []*report.Table
	for _, tdp := range r.TDPs {
		out = append(out, r.tablesFor(tdp)...)
	}
	return out
}

// Render implements Renderer.
func (r *Fig5Result) Render(w io.Writer) error {
	for _, tdp := range r.TDPs {
		if err := renderTables(w, r.tablesFor(tdp)); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig6Row compares TDP- vs temperature-constrained estimation for one app.
type Fig6Row struct {
	App           string
	ActiveTDP     float64 // % active under TDP
	ActiveTemp    float64 // % active under temperature constraint
	DarkReduction float64 // relative reduction of dark silicon, %
}

// Fig6Result holds both nodes of Figure 6.
type Fig6Result struct {
	Nodes        []tech.Node
	Freqs        map[tech.Node]float64
	Rows         map[tech.Node][]Fig6Row
	AvgReduction map[tech.Node]float64
	TDPW         float64
}

// Fig6 compares dark silicon as a TDP constraint (185 W) against a
// temperature constraint (TDTM = 80 °C) at 16 nm / 3.6 GHz and
// 11 nm / 4.0 GHz.
func Fig6() (*Fig6Result, error) {
	res := &Fig6Result{
		Nodes:        []tech.Node{tech.Node16, tech.Node11},
		Freqs:        map[tech.Node]float64{tech.Node16: 3.6, tech.Node11: 4.0},
		Rows:         map[tech.Node][]Fig6Row{},
		AvgReduction: map[tech.Node]float64{},
		TDPW:         185,
	}
	for _, node := range res.Nodes {
		p, err := platformFor(node, 100)
		if err != nil {
			return nil, err
		}
		f := res.Freqs[node]
		var sumRed, nRed float64
		for _, a := range paperOrder() {
			tdpEst, err := p.DarkSiliconUnderTDP(a, res.TDPW, f)
			if err != nil {
				return nil, err
			}
			tempEst, err := p.DarkSiliconUnderTemp(a, f, nil)
			if err != nil {
				return nil, err
			}
			row := Fig6Row{
				App:        a.Name,
				ActiveTDP:  tdpEst.Summary.ActivePercent(),
				ActiveTemp: tempEst.Summary.ActivePercent(),
			}
			darkTDP := tdpEst.Summary.DarkFraction()
			darkTemp := tempEst.Summary.DarkFraction()
			if darkTDP > 0 {
				row.DarkReduction = 100 * (darkTDP - darkTemp) / darkTDP
				sumRed += row.DarkReduction
				nRed++
			}
			res.Rows[node] = append(res.Rows[node], row)
		}
		if nRed > 0 {
			res.AvgReduction[node] = sumRed / nRed
		}
	}
	return res, nil
}

// tableFor builds one node's comparison table.
func (r *Fig6Result) tableFor(node tech.Node) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 6: dark silicon as TDP (%.0f W) vs temperature constraint, %s @ %.1f GHz",
			r.TDPW, node, r.Freqs[node]),
		Columns: []string{"app", "% active (TDP)", "% active (temp)", "dark reduction %"},
	}
	for _, row := range r.Rows[node] {
		t.AddRow(row.App,
			fmt.Sprintf("%.0f", row.ActiveTDP),
			fmt.Sprintf("%.0f", row.ActiveTemp),
			fmt.Sprintf("%.0f", row.DarkReduction))
	}
	t.AddNote("average dark-silicon reduction at %s: %.0f%%", node, r.AvgReduction[node])
	return t
}

// Tables implements Renderer.
func (r *Fig6Result) Tables() []*report.Table {
	var out []*report.Table
	for _, node := range r.Nodes {
		out = append(out, r.tableFor(node))
	}
	return out
}

// Render implements Renderer.
func (r *Fig6Result) Render(w io.Writer) error {
	for _, node := range r.Nodes {
		if err := r.tableFor(node).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig7Row is one application under both DVFS scenarios.
type Fig7Row struct {
	App            string
	Scenario1GIPS  float64
	Scenario2GIPS  float64
	Active1Percent float64
	Active2Percent float64
	Threads2       int
	FGHz2          float64
	GainPercent    float64
}

// Fig7Result holds both nodes of Figure 7.
type Fig7Result struct {
	Nodes   []tech.Node
	Freqs   map[tech.Node]float64
	Rows    map[tech.Node][]Fig7Row
	MaxGain map[tech.Node]float64
	TDPW    float64
}

// Fig7 compares scenario 1 (maximum nominal frequency, 8 threads per
// instance, fill until TDP) against scenario 2 (per-application TLP/ILP-
// aware thread count and v/f level for a full complement of instances)
// under TDP = 185 W.
func Fig7() (*Fig7Result, error) {
	res := &Fig7Result{
		Nodes:   []tech.Node{tech.Node16, tech.Node11},
		Freqs:   map[tech.Node]float64{tech.Node16: 3.6, tech.Node11: 4.0},
		Rows:    map[tech.Node][]Fig7Row{},
		MaxGain: map[tech.Node]float64{},
		TDPW:    185,
	}
	for _, node := range res.Nodes {
		p, err := platformFor(node, 100)
		if err != nil {
			return nil, err
		}
		fmax := res.Freqs[node]
		// The chip's job complement: as many 8-thread instances as fit
		// on the chip. Scenario 1 runs as many of them as the TDP allows
		// at the maximum nominal frequency; scenario 2 runs all of them
		// with a per-application (threads, v/f) choice under the same
		// TDP. Both scenarios therefore schedule the same fixed workload.
		jobs := p.NumCores() / apps.MaxThreadsPerInstance
		for _, a := range paperOrder() {
			plan1, err := mapping.TDPMap(p.Floorplan, a, p, mapping.TDPMapOptions{
				TDPW:         res.TDPW,
				FGHz:         fmax,
				TempC:        p.TDTM,
				MaxInstances: jobs,
			})
			if err != nil {
				return nil, err
			}
			s1, err := p.Summarize("scenario1", plan1)
			if err != nil {
				return nil, err
			}
			cfg, err := p.BestDVFSConfig(a, jobs, res.TDPW)
			if err != nil {
				return nil, err
			}
			row := Fig7Row{
				App:            a.Name,
				Scenario1GIPS:  s1.GIPS,
				Scenario2GIPS:  cfg.GIPS,
				Active1Percent: s1.ActivePercent(),
				Active2Percent: 100 * float64(cfg.Cores) / float64(p.NumCores()),
				Threads2:       cfg.Threads,
				FGHz2:          cfg.FGHz,
			}
			if row.Scenario1GIPS > 0 {
				row.GainPercent = 100 * (row.Scenario2GIPS - row.Scenario1GIPS) / row.Scenario1GIPS
			}
			if row.GainPercent > res.MaxGain[node] {
				res.MaxGain[node] = row.GainPercent
			}
			res.Rows[node] = append(res.Rows[node], row)
		}
	}
	return res, nil
}

// tableFor builds one node's scenario comparison.
func (r *Fig7Result) tableFor(node tech.Node) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 7: DVFS scenarios, %s, TDP = %.0f W (scenario 1: %.1f GHz, 8 threads)",
			node, r.TDPW, r.Freqs[node]),
		Columns: []string{"app", "S1 GIPS", "S2 GIPS", "S1 active %", "S2 active %", "S2 threads", "S2 GHz", "gain %"},
	}
	for _, row := range r.Rows[node] {
		t.AddRow(row.App,
			fmt.Sprintf("%.0f", row.Scenario1GIPS),
			fmt.Sprintf("%.0f", row.Scenario2GIPS),
			fmt.Sprintf("%.0f", row.Active1Percent),
			fmt.Sprintf("%.0f", row.Active2Percent),
			fmt.Sprintf("%d", row.Threads2),
			fmt.Sprintf("%.1f", row.FGHz2),
			fmt.Sprintf("%.0f", row.GainPercent))
	}
	t.AddNote("maximum performance gain at %s: %.0f%%", node, r.MaxGain[node])
	return t
}

// Tables implements Renderer.
func (r *Fig7Result) Tables() []*report.Table {
	var out []*report.Table
	for _, node := range r.Nodes {
		out = append(out, r.tableFor(node))
	}
	return out
}

// Render implements Renderer.
func (r *Fig7Result) Render(w io.Writer) error {
	for _, node := range r.Nodes {
		if err := r.tableFor(node).Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig8Result reproduces the patterning example of Figure 8: a contiguous
// mapping that violates TDTM versus a patterned mapping that activates
// more cores without violating it.
type Fig8Result struct {
	App             string
	FGHz            float64
	TDTM            float64
	ContiguousMax   int // max safe cores with contiguous mapping
	PatternedMax    int // max safe cores with patterned mapping
	ContigViolation struct {
		Cores  int
		PeakC  float64
		PowerW float64
	}
	PatternOK struct {
		Cores  int
		PeakC  float64
		PowerW float64
	}
	// Thermal maps (per-block °C, row-major) of both mappings, for the
	// figure's heatmap panels.
	ContigTemps  []float64
	PatternTemps []float64
	GridRows     int
	GridCols     int
}

// Fig8 uses the hungriest application at 16 nm / 3.6 GHz. The violation
// case maps the patterned-safe core count contiguously, mirroring the
// figure's pattern (a) vs pattern (b) contrast.
func Fig8() (*Fig8Result, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, err
	}
	a, err := apps.ByName("swaptions")
	if err != nil {
		return nil, err
	}
	const f = 3.6
	res := &Fig8Result{App: a.Name, FGHz: f, TDTM: p.TDTM}
	if res.ContiguousMax, err = p.MaxCoresUnderTemp(a, f, mapping.Contiguous); err != nil {
		return nil, err
	}
	if res.PatternedMax, err = p.MaxCoresUnderTemp(a, f, mapping.PeripheryFirst); err != nil {
		return nil, err
	}
	summarize := func(n int, strat mapping.Strategy) (metrics.Summary, []float64, error) {
		plan, err := mapping.Pack(p.Floorplan, strat, n, a, apps.MaxThreadsPerInstance, f)
		if err != nil {
			return metrics.Summary{}, nil, err
		}
		sum, err := p.Summarize("fig8", plan)
		if err != nil {
			return metrics.Summary{}, nil, err
		}
		temps, _, err := p.SteadyTemps(plan, core.BusyWait)
		return sum, temps, err
	}
	bad, badTemps, err := summarize(res.PatternedMax, mapping.Contiguous)
	if err != nil {
		return nil, err
	}
	res.ContigViolation.Cores = res.PatternedMax
	res.ContigViolation.PeakC = bad.PeakTempC
	res.ContigViolation.PowerW = bad.PowerW
	res.ContigTemps = badTemps
	good, goodTemps, err := summarize(res.PatternedMax, mapping.PeripheryFirst)
	if err != nil {
		return nil, err
	}
	res.PatternOK.Cores = res.PatternedMax
	res.PatternOK.PeakC = good.PeakTempC
	res.PatternOK.PowerW = good.PowerW
	res.PatternTemps = goodTemps
	res.GridRows, res.GridCols = p.Floorplan.Rows, p.Floorplan.Cols
	return res, nil
}

// Tables implements Renderer (the heatmap panels stay ASCII-only).
func (r *Fig8Result) Tables() []*report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 8: dark silicon patterning (%s @16nm, %.1f GHz, TDTM = %.0f °C)",
			r.App, r.FGHz, r.TDTM),
		Columns: []string{"mapping", "cores", "power [W]", "peak [°C]", "TDTM exceeded"},
	}
	t.AddRow("contiguous (pattern a)",
		fmt.Sprintf("%d", r.ContigViolation.Cores),
		fmt.Sprintf("%.0f", r.ContigViolation.PowerW),
		fmt.Sprintf("%.1f", r.ContigViolation.PeakC),
		fmt.Sprintf("%v", r.ContigViolation.PeakC > r.TDTM))
	t.AddRow("patterned (pattern b)",
		fmt.Sprintf("%d", r.PatternOK.Cores),
		fmt.Sprintf("%.0f", r.PatternOK.PowerW),
		fmt.Sprintf("%.1f", r.PatternOK.PeakC),
		fmt.Sprintf("%v", r.PatternOK.PeakC > r.TDTM))
	t.AddNote("max safe cores: contiguous %d vs patterned %d",
		r.ContiguousMax, r.PatternedMax)
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *Fig8Result) Render(w io.Writer) error {
	if err := renderTables(w, r.Tables()); err != nil {
		return err
	}
	// The figure's thermal-profile panels, on a shared colour scale.
	if r.GridRows > 0 && len(r.ContigTemps) == r.GridRows*r.GridCols {
		scaleLo, scaleHi := 60.0, 86.0
		hm := &report.Heatmap{Title: "thermal profile, pattern (a) contiguous:", Min: scaleLo, Max: scaleHi}
		if err := hm.RenderGrid(w, r.ContigTemps, r.GridRows, r.GridCols); err != nil {
			return err
		}
		hm.Title = "thermal profile, pattern (b) patterned:"
		if err := hm.RenderGrid(w, r.PatternTemps, r.GridRows, r.GridCols); err != nil {
			return err
		}
	}
	return nil
}

// Fig9Row compares TDPmap and DsRem on one application mix.
type Fig9Row struct {
	Mix           string
	TDPmapGIPS    float64
	DsRemGIPS     float64
	TDPmapActive  float64
	DsRemActive   float64
	SpeedupFactor float64
}

// Fig9Result is the Figure 9 comparison at 16 nm.
type Fig9Result struct {
	Rows       []Fig9Row
	MaxSpeedup float64
	TDPW       float64
}

// Fig9 evaluates single applications and mixes, TDPmap (185 W, max v/f,
// contiguous) against DsRem (80 °C, patterned, joint thread/v/f choice).
func Fig9() (*Fig9Result, error) {
	p, err := platformFor(tech.Node16, 100)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{TDPW: 185}
	mixes := [][]string{
		{"x264"},
		{"swaptions"},
		{"canneal"},
		{"x264", "swaptions"},
		{"blackscholes", "canneal"},
		{"x264", "bodytrack", "dedup", "ferret"},
	}
	for _, names := range mixes {
		var mix []apps.App
		label := ""
		for i, n := range names {
			a, err := apps.ByName(n)
			if err != nil {
				return nil, err
			}
			mix = append(mix, a)
			if i > 0 {
				label += "+"
			}
			label += n
		}
		// TDPmap: divide the budget equally among the mix's apps.
		var tdpGIPS float64
		var tdpActive int
		for _, a := range mix {
			est, err := p.DarkSiliconUnderTDP(a, res.TDPW/float64(len(mix)), p.Curve.FmaxGHz)
			if err != nil {
				return nil, err
			}
			tdpGIPS += est.Summary.GIPS
			tdpActive += est.Summary.ActiveCores
		}
		plan, err := mapping.DsRem(p.Floorplan, mix, p, p, mapping.DsRemOptions{
			TcritC: p.TDTM,
			Levels: p.Ladder.Levels(),
		})
		if err != nil {
			return nil, err
		}
		row := Fig9Row{
			Mix:          label,
			TDPmapGIPS:   tdpGIPS,
			DsRemGIPS:    plan.TotalGIPS(),
			TDPmapActive: 100 * float64(tdpActive) / float64(p.NumCores()),
			DsRemActive:  100 * float64(plan.ActiveCores()) / float64(p.NumCores()),
		}
		if tdpGIPS > 0 {
			row.SpeedupFactor = row.DsRemGIPS / tdpGIPS
		}
		if row.SpeedupFactor > res.MaxSpeedup {
			res.MaxSpeedup = row.SpeedupFactor
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Tables implements Renderer.
func (r *Fig9Result) Tables() []*report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 9: TDPmap (%.0f W) vs DsRem (80 °C), 16 nm", r.TDPW),
		Columns: []string{"mix", "TDPmap GIPS", "DsRem GIPS", "TDPmap active %", "DsRem active %", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Mix,
			fmt.Sprintf("%.0f", row.TDPmapGIPS),
			fmt.Sprintf("%.0f", row.DsRemGIPS),
			fmt.Sprintf("%.0f", row.TDPmapActive),
			fmt.Sprintf("%.0f", row.DsRemActive),
			fmt.Sprintf("%.2fx", row.SpeedupFactor))
	}
	t.AddNote("maximum DsRem speedup: %.2fx", r.MaxSpeedup)
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *Fig9Result) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

// Fig10Row is one node of Figure 10.
type Fig10Row struct {
	Node        tech.Node
	Cores       int
	DarkPercent float64
	ActiveCores int
	TSPPerCoreW float64
	TotalGIPS   float64
	AvgFGHz     float64
}

// Fig10Result evaluates system performance under TSP budgets.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 computes, per node, the worst-case TSP for the target active-core
// count (20/30/40 % dark silicon at 16/11/8 nm), then selects for every
// application the fastest ladder level whose per-core power fits the TSP
// budget and accumulates the resulting performance of an equal mix.
func Fig10(ctx context.Context) (*Fig10Result, error) {
	targets := []struct {
		node tech.Node
		dark float64
	}{
		{tech.Node16, 0.20},
		{tech.Node11, 0.30},
		{tech.Node8, 0.40},
	}
	res := &Fig10Result{}
	for _, tg := range targets {
		cores := coresForNode(tg.node)
		p, err := platformFor(tg.node, cores)
		if err != nil {
			return nil, err
		}
		calc, err := tsp.New(p.Thermal, p.TDTM)
		if err != nil {
			return nil, err
		}
		active := int(float64(cores) * (1 - tg.dark))
		budget, _, err := calc.WorstCase(ctx, active)
		if err != nil {
			return nil, err
		}
		row := Fig10Row{
			Node: tg.node, Cores: cores, DarkPercent: 100 * tg.dark,
			ActiveCores: active, TSPPerCoreW: budget,
		}
		// Equal share of active cores per application; each runs at the
		// fastest level fitting the TSP per-core budget.
		mix := paperOrder()
		share := active / len(mix)
		var fSum float64
		for _, a := range mix {
			level := -1
			for i, pt := range p.Ladder.Points {
				cp, err := p.CorePower(a, pt.FGHz, p.TDTM)
				if err != nil {
					return nil, err
				}
				if cp <= budget {
					level = i
				}
			}
			if level < 0 {
				continue // app cannot run under this budget
			}
			f := p.Ladder.Points[level].FGHz
			fSum += f
			instances := share / apps.MaxThreadsPerInstance
			row.TotalGIPS += float64(instances) * a.InstanceGIPS(f, apps.MaxThreadsPerInstance)
		}
		row.AvgFGHz = fSum / float64(len(mix))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Tables implements Renderer.
func (r *Fig10Result) Tables() []*report.Table {
	t := &report.Table{
		Title:   "Figure 10: overall performance under TSP across technology nodes",
		Columns: []string{"node", "cores", "dark %", "active", "TSP/core [W]", "avg f [GHz]", "GIPS"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Node.String(),
			fmt.Sprintf("%d", row.Cores),
			fmt.Sprintf("%.0f", row.DarkPercent),
			fmt.Sprintf("%d", row.ActiveCores),
			fmt.Sprintf("%.2f", row.TSPPerCoreW),
			fmt.Sprintf("%.1f", row.AvgFGHz),
			fmt.Sprintf("%.0f", row.TotalGIPS))
	}
	if n := len(r.Rows); n >= 2 {
		prev, last := r.Rows[n-2].TotalGIPS, r.Rows[n-1].TotalGIPS
		if prev > 0 {
			t.AddNote("performance increase %s -> %s: %.0f%%",
				r.Rows[n-2].Node, r.Rows[n-1].Node, 100*(last-prev)/prev)
		}
	}
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *Fig10Result) Render(w io.Writer) error { return renderTables(w, r.Tables()) }

func floatHeaders(xs []float64, format string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}
