package experiments

import (
	"fmt"
	"io"

	"darksim/internal/apps"
	"darksim/internal/endofscaling"
	"darksim/internal/report"
	"darksim/internal/tech"
)

// BaselineRow compares the ISCA'11-style power-budget estimate against
// this repository's temperature-aware estimate for one node.
type BaselineRow struct {
	Node         tech.Node
	AreaCores    int
	BaselineDark float64 // % (power-budget model, fmax only)
	RevisedDark  float64 // % (temperature constraint, patterned, fmax)
	RevisedDVFS  float64 // % (temperature constraint at a one-step-lower v/f)
	SpeedupBound float64 // ISCA'11 symmetric-multicore bound
}

// BaselineResult is the comparison across nodes — the paper's §3 argument
// ("the analytical studies of [6] result in over-estimation of dark
// silicon") quantified against our own implementation of [6]'s model.
type BaselineResult struct {
	Rows []BaselineRow
	App  string
	TDPW float64
}

// Baseline evaluates both methodologies for the hungriest application on
// the paper's per-node platforms under the same fixed TDP.
func Baseline() (*BaselineResult, error) {
	a, err := apps.ByName("swaptions")
	if err != nil {
		return nil, err
	}
	res := &BaselineResult{App: a.Name, TDPW: 185}
	for _, node := range []tech.Node{tech.Node16, tech.Node11, tech.Node8} {
		cores := coresForNode(node)
		p, err := platformFor(node, cores)
		if err != nil {
			return nil, err
		}
		// Baseline: same chip area as the platform, same TDP.
		budget := endofscaling.ChipBudget{
			AreaMM2: float64(cores) * p.Spec.CoreAreaMM2,
			TDPW:    res.TDPW,
		}
		base, err := endofscaling.DarkSilicon(node, a, budget, p.TDTM)
		if err != nil {
			return nil, err
		}
		bound, err := base.SpeedupBound(a.ParallelFrac)
		if err != nil {
			return nil, err
		}
		// Revised: temperature constraint with patterning, at fmax and
		// one ladder step below.
		revised, err := p.DarkSiliconUnderTemp(a, p.Curve.FmaxGHz, nil)
		if err != nil {
			return nil, err
		}
		lower := p.Ladder.Points[p.Ladder.Clamp(p.Ladder.AtOrBelow(p.Curve.FmaxGHz)-1)].FGHz
		revisedDVFS, err := p.DarkSiliconUnderTemp(a, lower, nil)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BaselineRow{
			Node:         node,
			AreaCores:    base.AreaCores,
			BaselineDark: 100 * base.DarkFraction,
			RevisedDark:  100 * revised.Summary.DarkFraction(),
			RevisedDVFS:  100 * revisedDVFS.Summary.DarkFraction(),
			SpeedupBound: bound,
		})
	}
	return res, nil
}

// Tables implements Renderer.
func (r *BaselineResult) Tables() []*report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Baseline [6] (power budget, %.0f W) vs revised (temperature-aware) dark silicon, %s",
			r.TDPW, r.App),
		Columns: []string{"node", "cores (area)", "dark % [6]", "dark % revised", "dark % revised+DVFS", "ISCA'11 speedup bound"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Node.String(),
			fmt.Sprintf("%d", row.AreaCores),
			fmt.Sprintf("%.0f", row.BaselineDark),
			fmt.Sprintf("%.0f", row.RevisedDark),
			fmt.Sprintf("%.0f", row.RevisedDVFS),
			fmt.Sprintf("%.1fx", row.SpeedupBound))
	}
	t.Notes = append(t.Notes,
		"the power-budget model over-estimates dark silicon at every node; DVFS",
		"and the temperature constraint recover the difference (paper §3).")
	return []*report.Table{t}
}

// Render implements Renderer.
func (r *BaselineResult) Render(w io.Writer) error { return renderTables(w, r.Tables()) }
