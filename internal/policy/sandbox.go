package policy

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"darksim/internal/report"
)

// Options configures a sandbox run. Policies race on sim.RunLanes, the
// lockstep engine behind Figures 11–13 (implicit-Euler thermal stepping,
// the 1 ms sim.ControlPeriodS, temperature-coupled leakage, busy-wait
// power, DTM emergency clamp at TDTM+5), so a chip-wide policy
// reproduces the §6 figure machinery bit for bit; each lane's hook adds
// the per-step trace and TSP lookup, and every trace is checked against
// the StandardAssertions for the platform's TDTM and the policy's
// ladder.
type Options struct {
	// Duration of the simulated run in seconds (default 0.5).
	Duration float64
}

// Outcome is one policy's sandbox run: the frontier metrics, the full
// per-step trace, and the assertion verdict. A policy that failed to
// prepare or run records the error instead of metrics, so a head-to-head
// comparison survives one infeasible policy.
type Outcome struct {
	Policy string `json:"policy"`
	Info   string `json:"info,omitempty"`
	Err    string `json:"error,omitempty"`

	AvgGIPS float64 `json:"avg_gips"`
	// EnergyPerGinstr is energy per unit work in J/Ginstr
	// (EnergyJ / (AvgGIPS · Duration)).
	EnergyPerGinstr float64 `json:"energy_per_ginstr"`
	EnergyJ         float64 `json:"energy_j"`
	PeakPowerW      float64 `json:"peak_power_w"`
	MaxTempC        float64 `json:"max_temp_c"`
	// DarkPercent is the time-averaged dark fraction (gated placements
	// count as dark while gated).
	DarkPercent float64 `json:"dark_percent"`
	DTMEvents   int     `json:"dtm_events"`

	Violations []Violation `json:"violations,omitempty"`
	Steps      []Step      `json:"-"`
}

// Passed reports whether the run completed and its trace satisfied every
// assertion.
func (o *Outcome) Passed() bool { return o.Err == "" && len(o.Violations) == 0 }

// Run executes one policy against the environment and checks its trace.
// Errors reaching the caller are infrastructure failures (bad options,
// context cancellation); policy-level failures (infeasible preparation,
// assertion violations) are recorded in the Outcome. A solo run is a
// one-lane race: the stepping engine is the same code head-to-head races
// use, and per lane the two are bit-for-bit identical.
func (e *Env) Run(ctx context.Context, pol Policy, opt Options) (*Outcome, error) {
	outs, err := e.RunAll(ctx, []Policy{pol}, opt, nil)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// tspFor returns the worst-case per-core TSP of a period with active
// powered cores, memoized by that count: WorstCase depends on nothing
// else, so the memo serves every gating mask of the same size.
func (e *Env) tspFor(ctx context.Context, active int, memo map[int]float64) (float64, error) {
	if active == 0 {
		return 0, nil
	}
	if v, ok := memo[active]; ok {
		return v, nil
	}
	budget, _, err := e.TSP.WorstCase(ctx, active)
	if err != nil {
		return 0, err
	}
	memo[active] = budget
	return budget, nil
}

// RunAll executes the policies head-to-head as one lockstep race and
// returns their outcomes in input order. All lanes advance through the
// same control periods together, sharing one batched solve against the
// cached thermal factorization per period (see race); per lane the
// result is bit-for-bit what a solo Run produces. Policy-level failures
// stay inside their Outcome; only infrastructure errors (bad options,
// context cancellation) abort the set. onDone, when non-nil, observes
// each outcome after the pack completes, in input order (the service
// layer streams frontier rows from here).
func (e *Env) RunAll(ctx context.Context, pols []Policy, opt Options, onDone func(*Outcome)) ([]*Outcome, error) {
	lanes, err := e.race(ctx, pols, opt)
	if err != nil {
		return nil, err
	}
	outs := make([]*Outcome, len(lanes))
	for i, ln := range lanes {
		out := ln.out
		if out.Err == "" {
			viols, err := Check(out.Steps, StandardAssertions(e.Platform.TDTM, len(ln.prep.Ladder.Points)-1))
			if err != nil {
				return nil, err
			}
			for j := range viols {
				viols[j].Policy = out.Policy
			}
			out.Violations = viols
		}
		outs[i] = out
		if onDone != nil {
			onDone(out)
		}
	}
	return outs, nil
}

// Frontier renders the head-to-head comparison: one row per policy with
// the axes the paper trades off — throughput, energy per work, peak
// temperature, dark fraction — plus the assertion verdict.
func Frontier(title string, outs []*Outcome) *report.Table {
	t := &report.Table{
		Title: title,
		Columns: []string{"policy", "GIPS", "J/Ginstr", "peak [°C]",
			"peak [W]", "dark [%]", "DTM", "assertions"},
	}
	for _, o := range outs {
		if o == nil {
			continue
		}
		if o.Err != "" {
			t.AddRow(o.Policy, "-", "-", "-", "-", "-", "-", "error: "+o.Err)
			continue
		}
		verdict := "pass"
		if n := len(o.Violations); n > 0 {
			verdict = fmt.Sprintf("FAIL (%d)", n)
		}
		t.AddRow(o.Policy,
			fmt.Sprintf("%.1f", o.AvgGIPS),
			fmt.Sprintf("%.4f", o.EnergyPerGinstr),
			fmt.Sprintf("%.2f", o.MaxTempC),
			fmt.Sprintf("%.1f", o.PeakPowerW),
			fmt.Sprintf("%.1f", o.DarkPercent),
			strconv.Itoa(o.DTMEvents),
			verdict)
	}
	return t
}

// ViolationTable renders every assertion violation across the outcomes,
// naming the first violating step of each failed assertion with its full
// trace context.
func ViolationTable(outs []*Outcome) *report.Table {
	t := &report.Table{
		Title:   "Assertion violations (first violating step per assertion)",
		Columns: []string{"policy", "assertion", "step", "t [s]", "detail"},
	}
	for _, o := range outs {
		if o == nil {
			continue
		}
		for _, v := range o.Violations {
			t.AddRow(v.Policy, v.Assertion, strconv.Itoa(v.Step),
				fmt.Sprintf("%.3f", v.TimeS), v.Detail)
		}
	}
	return t
}

// sortedParams renders a parameter map deterministically.
func sortedParams(vals map[string]float64) string {
	if len(vals) == 0 {
		return "defaults"
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.3g", k, vals[k])
	}
	return s
}
