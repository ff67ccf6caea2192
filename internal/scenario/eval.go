package scenario

import (
	"context"
	"fmt"
	"strconv"

	"darksim/internal/apps"
	"darksim/internal/mapping"
	"darksim/internal/metrics"
	"darksim/internal/progress"
	"darksim/internal/report"
	"darksim/internal/tsp"
)

// AppResult is the fill outcome for one workload entry.
type AppResult struct {
	App      string  `json:"app"`
	CoreType string  `json:"core_type"`
	FGHz     float64 `json:"f_ghz"`
	Threads  int     `json:"threads"`
	// InstancesRequested/Powered: the spec's cap vs what the TDP fill
	// could afford. PartialThreads is the thread count of a final
	// smaller instance soaking up the remaining budget (0 if none).
	InstancesRequested int `json:"instances_requested"`
	InstancesPowered   int `json:"instances_powered"`
	PartialThreads     int `json:"partial_threads,omitempty"`
	ActiveCores        int `json:"active_cores"`
	// PerCoreW is the Equation (1) per-core power at the fill
	// temperature (TDTM); PowerW is the entry's budgeted total.
	PerCoreW float64 `json:"per_core_w"`
	PowerW   float64 `json:"power_w"`
	// SpeedupPerInstance is the Amdahl speedup of one full instance on
	// this core type; GIPS is the entry's total throughput.
	SpeedupPerInstance float64 `json:"speedup_per_instance"`
	GIPS               float64 `json:"gips"`
}

// Result is one evaluated scenario: the constraint-system view per
// workload entry (the Charm-exemplar quantities) plus the thermal ground
// truth of the combined mapping on the compiled platform.
type Result struct {
	Name         string      `json:"name,omitempty"`
	Hash         string      `json:"hash"`
	Node         string      `json:"node"`
	Floorplan    string      `json:"floorplan"`
	TDPW         float64     `json:"tdp_w"`
	TotalCores   int         `json:"total_cores"`
	TotalAreaMM2 float64     `json:"total_area_mm2"`
	CoreTypes    []CoreType  `json:"core_types"`
	Apps         []AppResult `json:"apps"`
	// Summary is the steady-state evaluation of the combined plan
	// (leakage/temperature fixed point through the thermal solver).
	Summary     metrics.Summary `json:"summary"`
	DarkPercent float64         `json:"dark_percent"`
	ExceedsTDTM bool            `json:"exceeds_tdtm"`
	// TSPPerCoreW is the worst-case thermal safe power per active core
	// at this active count (0 when the chip is fully dark).
	TSPPerCoreW float64 `json:"tsp_per_core_w,omitempty"`
}

// Evaluate runs the TDP fill on the compiled platform and grounds the
// outcome thermally.
//
// The fill is the paper's §3.1 estimation generalized to a mix: walk the
// workload entries in normalized order, give each the remaining budget
// and the remaining cores of its type, and power whole instances (plus
// one partial instance when the entry's cap allows) until either runs
// out. On a single-entry, single-type grid spec this arithmetic is
// exactly mapping.TDPMap's — the differential check in internal/verify
// pins the compiled scenario to DarkSiliconUnderTDP bit for bit.
func (sc *Scenario) Evaluate(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := sc.Platform
	res := &Result{
		Name:         sc.Spec.Name,
		Hash:         sc.Hash,
		Node:         p.Node.String(),
		Floorplan:    sc.Spec.Floorplan,
		TDPW:         sc.Spec.TDPW,
		TotalCores:   p.NumCores(),
		TotalAreaMM2: sc.TotalAreaMM2,
		CoreTypes:    sc.Spec.CoreTypes,
	}

	// With a progress sink on the context, each workload entry's fill
	// streams as a one-row fragment the moment it is decided, and the
	// thermal ground truth arrives as the final point. Points here are
	// sequential (the fill walks entries in spec order).
	emitting := progress.Enabled(ctx)
	totalPoints := len(sc.Spec.Apps) + 1 // entries + thermal summary

	plan, entries, err := sc.fill(func(entryIdx int, entry AppResult) {
		if emitting {
			frag := fillTable(fmt.Sprintf("TDP fill — entry: %s on %s", entry.App, entry.CoreType))
			frag.AddRow(fillRow(entry)...)
			progress.Emit(ctx, progress.Point{Table: frag, Done: entryIdx + 1, Total: totalPoints})
		}
	})
	if err != nil {
		return nil, err
	}
	res.Apps = entries

	label := sc.Spec.Name
	if label == "" {
		label = "scenario " + sc.Hash[:12]
	}
	sum, err := p.Summarize(label, plan)
	if err != nil {
		return nil, err
	}
	res.Summary = sum
	res.DarkPercent = 100 * sum.DarkFraction()
	res.ExceedsTDTM = sum.PeakTempC > p.TDTM

	if sum.ActiveCores > 0 {
		calc, err := tsp.New(p.Thermal, p.TDTM)
		if err != nil {
			return nil, err
		}
		budget, _, err := calc.WorstCase(ctx, sum.ActiveCores)
		if err != nil {
			return nil, err
		}
		res.TSPPerCoreW = budget
	}
	if emitting {
		progress.Emit(ctx, progress.Point{
			Table: res.summaryTable(), Done: totalPoints, Total: totalPoints,
		})
	}
	return res, nil
}

// FillPlan runs the §3.1 TDP fill alone — the constraint-system half of
// Evaluate, without the thermal ground truth — and returns the resulting
// plan together with the per-entry fill outcomes. The arithmetic is
// byte-identical to Evaluate's (both call the same fill walk), which is
// what lets the policy sandbox's TDPmap adapter pin its instance counts
// to scenario evaluation bit for bit.
func (sc *Scenario) FillPlan() (*mapping.Plan, []AppResult, error) {
	return sc.fill(nil)
}

// fill walks the workload entries in normalized order, giving each the
// remaining TDP budget and the remaining cores of its type, powering
// whole instances (plus one partial instance when the entry's cap allows)
// until either runs out. onEntry, when non-nil, observes each entry's
// outcome the moment it is decided (Evaluate streams these as progress
// fragments).
func (sc *Scenario) fill(onEntry func(entryIdx int, entry AppResult)) (*mapping.Plan, []AppResult, error) {
	p := sc.Platform
	plan := &mapping.Plan{NumCores: p.NumCores()}
	var entries []AppResult

	// cursor[type] is the next free block of that type's range.
	cursor := make(map[string]int, len(sc.Types))
	for _, t := range sc.Types {
		cursor[t.Name] = t.Start
	}
	budget := sc.Spec.TDPW
	for entryIdx, m := range sc.Spec.Apps {
		ct, err := sc.typeByName(m.CoreType)
		if err != nil {
			return nil, nil, err
		}
		app, err := sc.AppFor(m)
		if err != nil {
			return nil, nil, err
		}
		perCore, err := p.CorePower(app, m.FGHz, p.TDTM)
		if err != nil {
			return nil, nil, err
		}
		if perCore <= 0 {
			return nil, nil, fmt.Errorf("scenario: non-positive per-core power for %s on %s", m.App, ct.Name)
		}
		// mapping.TDPMap's arithmetic: whole instances out of the
		// budgeted cores, a partial instance only while under the cap.
		instances, partial := mapping.FillCount(budget, perCore, ct.End-cursor[ct.Name], m.Threads, m.Instances, true)
		active := instances*m.Threads + partial
		start := cursor[ct.Name]
		cursor[ct.Name] = start + active
		plan.AddInstances(app, blockRange(start, active), m.Threads, m.FGHz)
		entry := AppResult{
			App:                m.App,
			CoreType:           m.CoreType,
			FGHz:               m.FGHz,
			Threads:            m.Threads,
			InstancesRequested: m.Instances,
			InstancesPowered:   instances,
			PartialThreads:     partial,
			ActiveCores:        active,
			PerCoreW:           perCore,
			PowerW:             float64(active) * perCore,
			SpeedupPerInstance: app.Speedup(m.Threads),
			GIPS:               float64(instances)*app.InstanceGIPS(m.FGHz, m.Threads) + app.InstanceGIPS(m.FGHz, partial),
		}
		budget -= entry.PowerW
		entries = append(entries, entry)
		if onEntry != nil {
			onEntry(entryIdx, entry)
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, fmt.Errorf("scenario: fill produced an invalid plan: %w", err)
	}
	return plan, entries, nil
}

// AppFor resolves one workload entry to its core-type-specialized catalog
// application — the apps.App the fill (and any policy driving this
// scenario) actually runs.
func (sc *Scenario) AppFor(m AppMix) (apps.App, error) {
	ct, err := sc.typeByName(m.CoreType)
	if err != nil {
		return apps.App{}, err
	}
	base, err := apps.ByName(m.App)
	if err != nil {
		return apps.App{}, err
	}
	return scaleApp(base, ct), nil
}

// scaleApp specializes a catalog application to a core type: PerfScale
// multiplies per-thread IPC, PowerScale multiplies the dynamic and
// frequency-independent power constants. Unit scales return the catalog
// value bit for bit.
func scaleApp(a apps.App, ct CompiledType) apps.App {
	a.IPC *= ct.PerfScale
	a.Ceff22NF *= ct.PowerScale
	a.Pind22W *= ct.PowerScale
	return a
}

// blockRange returns the contiguous block indices [start, start+n).
func blockRange(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// Tables renders the result in the repo's structured-report form: the
// chip, the constraint-system fill per workload entry, and the thermal
// summary.
func (r *Result) Tables() []*report.Table {
	name := r.Name
	if name == "" {
		name = r.Hash[:12]
	}
	chip := &report.Table{
		Title:   fmt.Sprintf("Scenario %s: chip, %s, %d cores, TDP %.0f W (%s floorplan)", name, r.Node, r.TotalCores, r.TDPW, r.Floorplan),
		Columns: []string{"core type", "count", "area scale", "power scale", "perf scale"},
	}
	for _, t := range r.CoreTypes {
		chip.AddRow(t.Name, strconv.Itoa(t.Count),
			fmt.Sprintf("%.2f", t.AreaScale),
			fmt.Sprintf("%.2f", t.PowerScale),
			fmt.Sprintf("%.2f", t.PerfScale))
	}
	chip.AddNote("die area: %.1f mm²", r.TotalAreaMM2)
	chip.AddNote("spec hash: %s", r.Hash)

	fill := fillTable("TDP fill (constraint system per workload entry)")
	for _, a := range r.Apps {
		fill.AddRow(fillRow(a)...)
	}

	return []*report.Table{chip, fill, r.summaryTable()}
}

// fillTable returns an empty grid in the TDP-fill column shape, shared
// by the full result and the streamed per-entry fragments.
func fillTable(title string) *report.Table {
	return &report.Table{
		Title: title,
		Columns: []string{"app", "core type", "f [GHz]", "threads",
			"instances", "powered", "active cores", "W/core", "power [W]", "speedup", "GIPS"},
	}
}

// fillRow formats one workload entry's fill outcome as table cells.
func fillRow(a AppResult) []string {
	return []string{
		a.App, a.CoreType,
		fmt.Sprintf("%.1f", a.FGHz),
		strconv.Itoa(a.Threads),
		strconv.Itoa(a.InstancesRequested),
		strconv.Itoa(a.InstancesPowered),
		strconv.Itoa(a.ActiveCores),
		fmt.Sprintf("%.3f", a.PerCoreW),
		fmt.Sprintf("%.1f", a.PowerW),
		fmt.Sprintf("%.2f", a.SpeedupPerInstance),
		fmt.Sprintf("%.1f", a.GIPS),
	}
}

// summaryTable is the thermal ground-truth grid — also the final
// fragment a streamed evaluation emits.
func (r *Result) summaryTable() *report.Table {
	sum := &report.Table{
		Title:   "Thermal ground truth (steady state on the compiled platform)",
		Columns: []string{"active", "total", "dark [%]", "GIPS", "power [W]", "peak [°C]"},
	}
	sum.AddRow(strconv.Itoa(r.Summary.ActiveCores), strconv.Itoa(r.Summary.TotalCores),
		fmt.Sprintf("%.1f", r.DarkPercent),
		fmt.Sprintf("%.1f", r.Summary.GIPS),
		fmt.Sprintf("%.1f", r.Summary.PowerW),
		fmt.Sprintf("%.1f", r.Summary.PeakTempC))
	if r.ExceedsTDTM {
		sum.AddNote("peak temperature exceeds TDTM — the TDP budget is thermally unsafe (the paper's Observation 1)")
	}
	if r.TSPPerCoreW > 0 {
		sum.AddNote("worst-case TSP at %d active cores: %.3f W/core (%.1f W total)",
			r.Summary.ActiveCores, r.TSPPerCoreW, r.TSPPerCoreW*float64(r.Summary.ActiveCores))
	}
	return sum
}
