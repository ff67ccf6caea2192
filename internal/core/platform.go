// Package core is the paper's primary contribution in library form: the
// revised dark-silicon estimation methodology. It binds a technology node,
// a floorplan, the Equation (1)/(2) power and V/f models and the compact
// thermal model into a Platform, and provides the estimators the paper's
// experiments are built from:
//
//   - dark silicon under a power-budget (TDP) constraint (§3.1);
//   - dark silicon under a temperature constraint (§3.2);
//   - DVFS-aware, TLP/ILP-aware operating-point selection (§3.3);
//   - plan evaluation (performance, power, steady-state peak temperature)
//     with the leakage/temperature fixed point resolved by iteration.
package core

import (
	"errors"
	"fmt"
	"math"

	"darksim/internal/apps"
	"darksim/internal/floorplan"
	"darksim/internal/mapping"
	"darksim/internal/metrics"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/vf"
)

// DefaultTDTM is the Dynamic Thermal Management trigger temperature the
// paper uses throughout (§3.1, after Intel datasheets): 80 °C.
const DefaultTDTM = 80.0

// BoostHeadroomGHz is how far above the nominal maximum the boost ladder
// extends (three 200 MHz steps, in line with §6's Turbo-style controller).
const BoostHeadroomGHz = 0.6

// PowerMode selects how multi-threaded instances consume dynamic power.
type PowerMode int

const (
	// BusyWait charges every active core the full activity factor
	// regardless of Amdahl stalls (threads spin at synchronization
	// points). This matches the TDP-filling experiments of §3–§4.
	BusyWait PowerMode = iota
	// GatedIdle clock-gates cores during the serial phases, scaling the
	// average activity by the parallel efficiency S(n)/n. Used by the
	// §6 NTC energy study, where deployments are energy-optimized.
	GatedIdle
)

// String implements fmt.Stringer.
func (m PowerMode) String() string {
	switch m {
	case BusyWait:
		return "busy-wait"
	case GatedIdle:
		return "gated-idle"
	}
	return fmt.Sprintf("PowerMode(%d)", int(m))
}

// Platform is a fully instantiated manycore system at one technology node.
type Platform struct {
	Node      tech.Node
	Spec      tech.Spec
	Floorplan *floorplan.Floorplan
	Thermal   *thermal.Model
	Curve     vf.Curve
	// Ladder spans 0.4 GHz up to nominal fmax in 0.2 GHz steps.
	Ladder *vf.Ladder
	// BoostLadder additionally extends BoostHeadroomGHz above nominal.
	BoostLadder *vf.Ladder
	// TDTM is the critical (DTM-trigger) temperature in °C.
	TDTM float64
}

// Options tunes platform construction.
type Options struct {
	// Cores on the chip (default 100; the paper also uses 198 and 361).
	Cores int
	// TDTM in °C (default DefaultTDTM).
	TDTM float64
}

// NewPlatform builds the standard platform for a node with default options.
func NewPlatform(node tech.Node) (*Platform, error) {
	return NewPlatformWith(node, Options{})
}

// NewPlatformWith builds a platform with explicit options on the
// paper-standard homogeneous grid floorplan for opt.Cores cores.
func NewPlatformWith(node tech.Node, opt Options) (*Platform, error) {
	if opt.Cores == 0 {
		opt.Cores = 100
	}
	spec, err := tech.SpecFor(node)
	if err != nil {
		return nil, err
	}
	fp, err := floorplan.NewGridForCount(opt.Cores, spec.CoreAreaMM2)
	if err != nil {
		return nil, err
	}
	return NewPlatformFrom(node, fp, opt)
}

// maxDieGridSide bounds the derived die discretization of heterogeneous
// floorplans: a pathological mix of one huge and many tiny cores must not
// explode the thermal node count (the per-layer grid is side², plus the
// spreader and sink layers).
const maxDieGridSide = 64

// NewPlatformFrom builds a platform over an explicit floorplan — the
// compilation seam the scenario engine uses for arbitrary (including
// heterogeneous big.LITTLE) chips. Grid floorplans discretize the die at
// their own Cols×Rows exactly like NewPlatformWith, so a compiled
// symmetric scenario is bit-identical to the paper's fixed platforms;
// non-grid plans derive the resolution from the smallest block edge,
// clamped to maxDieGridSide.
func NewPlatformFrom(node tech.Node, fp *floorplan.Floorplan, opt Options) (*Platform, error) {
	if opt.TDTM == 0 {
		opt.TDTM = DefaultTDTM
	}
	spec, err := tech.SpecFor(node)
	if err != nil {
		return nil, err
	}
	nx, ny := fp.Cols, fp.Rows
	if nx == 0 || ny == 0 {
		side := fp.MinBlockSide()
		if side <= 0 {
			return nil, fmt.Errorf("core: floorplan has no blocks to derive a thermal grid from")
		}
		nx = clampGridSide(int(math.Ceil(fp.DieW / side)))
		ny = clampGridSide(int(math.Ceil(fp.DieH / side)))
	}
	tm, err := thermal.NewModel(fp, thermal.DefaultConfig(fp.DieW, fp.DieH, nx, ny))
	if err != nil {
		return nil, err
	}
	curve, err := vf.CurveFor(node)
	if err != nil {
		return nil, err
	}
	ladder, err := vf.NewLadder(curve, vf.LadderOptions{})
	if err != nil {
		return nil, err
	}
	boost, err := vf.NewLadder(curve, vf.LadderOptions{MaxGHz: curve.FmaxGHz + BoostHeadroomGHz})
	if err != nil {
		return nil, err
	}
	return &Platform{
		Node:        node,
		Spec:        spec,
		Floorplan:   fp,
		Thermal:     tm,
		Curve:       curve,
		Ladder:      ladder,
		BoostLadder: boost,
		TDTM:        opt.TDTM,
	}, nil
}

// clampGridSide bounds a derived die-grid dimension to [1, maxDieGridSide].
func clampGridSide(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxDieGridSide {
		return maxDieGridSide
	}
	return n
}

// NumCores returns the chip's core count.
func (p *Platform) NumCores() int { return p.Floorplan.NumBlocks() }

// CorePower implements mapping.NodePowerer with busy-wait semantics.
func (p *Platform) CorePower(a apps.App, fGHz, tempC float64) (float64, error) {
	return a.CorePower(p.Node, fGHz, tempC)
}

// utilization returns the GatedIdle activity scale for n threads.
func utilization(a apps.App, threads int) float64 {
	if threads <= 1 {
		return 1
	}
	return a.Speedup(threads) / float64(threads)
}

// PlanPower evaluates the per-core power map of a plan at a uniform
// temperature estimate under the given mode.
func (p *Platform) PlanPower(plan *mapping.Plan, tempC float64, mode PowerMode) ([]float64, error) {
	if plan.NumCores != p.NumCores() {
		return nil, fmt.Errorf("core: plan for %d cores on a %d-core platform", plan.NumCores, p.NumCores())
	}
	pw := make([]float64, plan.NumCores)
	for _, pl := range plan.Placements {
		coef, err := p.PowerCoefFor(pl, mode)
		if err != nil {
			return nil, err
		}
		cp := coef.At(tempC)
		for _, c := range pl.Cores {
			pw[c] = cp
		}
	}
	return pw, nil
}

// leakageIterations bounds the power/temperature fixed point. Leakage is a
// modest fraction of total power, so the iteration contracts quickly.
const leakageIterations = 4

// SteadyTemps solves the coupled power/temperature fixed point for a plan:
// power is evaluated at the core temperatures, which depend on power. It
// returns the per-core temperatures and the consistent per-core power map.
func (p *Platform) SteadyTemps(plan *mapping.Plan, mode PowerMode) ([]float64, []float64, error) {
	if plan.NumCores != p.NumCores() {
		return nil, nil, fmt.Errorf("core: plan for %d cores on a %d-core platform", plan.NumCores, p.NumCores())
	}
	coefs := make([]PowerCoef, len(plan.Placements))
	for i, pl := range plan.Placements {
		coef, err := p.PowerCoefFor(pl, mode)
		if err != nil {
			return nil, nil, err
		}
		coefs[i] = coef
	}
	// Start from the DTM threshold as the temperature estimate.
	temps := make([]float64, plan.NumCores)
	for i := range temps {
		temps[i] = p.TDTM
	}
	var power []float64
	for iter := 0; iter < leakageIterations; iter++ {
		power = make([]float64, plan.NumCores)
		for i, pl := range plan.Placements {
			for _, c := range pl.Cores {
				power[c] = coefs[i].At(temps[c])
			}
		}
		next, err := p.Thermal.SteadyState(power)
		if err != nil {
			return nil, nil, err
		}
		temps = next
	}
	return temps, power, nil
}

// PeakTemp implements mapping.Evaluator: the steady-state peak core
// temperature of the plan with busy-wait power.
func (p *Platform) PeakTemp(plan *mapping.Plan) (float64, error) {
	temps, _, err := p.SteadyTemps(plan, BusyWait)
	if err != nil {
		return 0, err
	}
	peak := math.Inf(-1)
	for _, t := range temps {
		if t > peak {
			peak = t
		}
	}
	return peak, nil
}

// Summarize evaluates a plan into a metrics.Summary (busy-wait power).
func (p *Platform) Summarize(label string, plan *mapping.Plan) (metrics.Summary, error) {
	temps, power, err := p.SteadyTemps(plan, BusyWait)
	if err != nil {
		return metrics.Summary{}, err
	}
	var totalP float64
	for _, w := range power {
		totalP += w
	}
	peak := math.Inf(-1)
	for _, t := range temps {
		if t > peak {
			peak = t
		}
	}
	return metrics.Summary{
		Label:       label,
		ActiveCores: plan.ActiveCores(),
		TotalCores:  plan.NumCores,
		GIPS:        plan.TotalGIPS(),
		PowerW:      totalP,
		PeakTempC:   peak,
	}, nil
}

// ErrInfeasible is returned when a constraint cannot be met at all.
var ErrInfeasible = errors.New("core: constraint infeasible")
