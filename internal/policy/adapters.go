package policy

import (
	"context"
	"fmt"

	"darksim/internal/apps"
	"darksim/internal/boost"
	"darksim/internal/mapping"
	"darksim/internal/sim"
)

// holdLevels keeps a fixed per-placement level assignment — the control
// side of the static mapping policies (TDPmap, patterned, DsRem).
type holdLevels struct{ levels []int }

func (h holdLevels) Start() Decision           { return Decision{Levels: h.levels} }
func (h holdLevels) Next(Observation) Decision { return Decision{Levels: h.levels} }

// Hold implements sim.Holder: the assignment never changes, so a hold
// lane on its steady state skips the exact steps under sim.StepAuto.
func (h holdLevels) Hold() ([]int, bool) { return h.levels, true }

// fillPlan runs the scenario's TDP fill and rejects the degenerate
// fully-dark outcome, which no stepping policy can do anything with.
func fillPlan(env *Env) (*mapping.Plan, error) {
	plan, _, err := env.Scenario.FillPlan()
	if err != nil {
		return nil, err
	}
	if len(plan.Placements) == 0 {
		return nil, fmt.Errorf("%w: the TDP fill powered no instances on this scenario", ErrPolicy)
	}
	return plan, nil
}

// Constant is the §6 constant-frequency baseline: the scenario's TDP-fill
// plan run at the highest ladder level whose steady-state peak stays at
// or below TDTM.
type Constant struct{}

// NewConstant returns the constant-frequency baseline policy.
func NewConstant() Constant { return Constant{} }

func (Constant) Name() string { return "constant" }
func (Constant) Info() string {
	return "TDP-fill plan at the highest thermally safe constant level (§6 baseline)"
}

func (Constant) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := fillPlan(env)
	if err != nil {
		return nil, err
	}
	p := env.Platform
	level, err := boost.FindConstantLevel(p, plan, p.BoostLadder, p.TDTM)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		Plan:        plan,
		Ladder:      p.BoostLadder,
		Ctrl:        sim.ChipWide(boost.Constant{Level: level}, p.BoostLadder, len(plan.Placements)),
		StartSteady: true,
	}, nil
}

// Boost is the Turbo-Boost-style closed loop of §6: starting from the
// constant-safe level, step the chip-wide frequency up while the peak is
// comfortably below TDTM and down at or above it.
type Boost struct {
	// HoldBandC is the closed loop's hold band below TDTM (default
	// boost.DefaultHoldBandC).
	HoldBandC float64
}

// NewBoost returns the closed-loop boosting policy with defaults.
func NewBoost() *Boost { return &Boost{HoldBandC: boost.DefaultHoldBandC} }

func (*Boost) Name() string { return "boost" }
func (*Boost) Info() string {
	return "closed-loop Turbo-style boosting around TDTM (§6, Figures 11-13)"
}

func (b *Boost) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := fillPlan(env)
	if err != nil {
		return nil, err
	}
	p := env.Platform
	ladder := p.BoostLadder
	level, err := boost.FindConstantLevel(p, plan, ladder, p.TDTM)
	if err != nil {
		return nil, err
	}
	ctrl, err := boost.NewClosed(p.TDTM, level, len(ladder.Points)-1)
	if err != nil {
		return nil, err
	}
	ctrl.HoldBandC = b.HoldBandC
	return &Prepared{
		Plan:        plan,
		Ladder:      ladder,
		Ctrl:        sim.ChipWide(ctrl, ladder, len(plan.Placements)),
		StartSteady: true,
	}, nil
}

// Params implements Tunable.
func (b *Boost) Params() []Param {
	return []Param{{Name: "hold_band_c", Value: b.HoldBandC, Min: 0, Max: 2, Step: 0.1}}
}

// WithParams implements Tunable.
func (b *Boost) WithParams(vals map[string]float64) (Policy, error) {
	nb := *b
	for name, v := range vals {
		switch name {
		case "hold_band_c":
			if v < 0 {
				return nil, fmt.Errorf("%w: boost hold_band_c %g", ErrPolicy, v)
			}
			nb.HoldBandC = v
		default:
			return nil, fmt.Errorf("%w: boost has no parameter %q", ErrPolicy, name)
		}
	}
	return &nb, nil
}

// UnsafeBoost is the intentionally unsafe negative control: boosting with
// the TDTM check disabled (boost.Greedy climbs to deep boost and stays
// there). A correct assertion engine must catch it.
type UnsafeBoost struct{}

// NewUnsafeBoost returns the negative-control policy.
func NewUnsafeBoost() UnsafeBoost { return UnsafeBoost{} }

func (UnsafeBoost) Name() string { return "boost-unsafe" }
func (UnsafeBoost) Info() string {
	return "boosting with the TDTM check disabled — negative control, must fail assertions"
}

func (UnsafeBoost) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := fillPlan(env)
	if err != nil {
		return nil, err
	}
	p := env.Platform
	ladder := p.BoostLadder
	level, err := boost.FindConstantLevel(p, plan, ladder, p.TDTM)
	if err != nil {
		return nil, err
	}
	ctrl, err := boost.NewGreedy(level, len(ladder.Points)-1)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		Plan:        plan,
		Ladder:      ladder,
		Ctrl:        sim.ChipWide(ctrl, ladder, len(plan.Placements)),
		StartSteady: true,
	}, nil
}

// TDPMap is the §3.1/§4 TDP-guided fill run open loop: the scenario's
// own fill plan (contiguous per-type ranges, spec frequencies) held
// constant. On TDP-unsafe scenarios its trace violates the TDTM
// assertion — the paper's Observation 1, caught at the violating step.
type TDPMap struct{}

// NewTDPMap returns the TDP-fill policy.
func NewTDPMap() TDPMap { return TDPMap{} }

func (TDPMap) Name() string { return "tdpmap" }
func (TDPMap) Info() string {
	return "TDP-guided fill held open loop at the spec's v/f levels (§3.1, TDPmap)"
}

func (TDPMap) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := fillPlan(env)
	if err != nil {
		return nil, err
	}
	return holdPrepared(env, plan)
}

// holdPrepared wraps a static plan in a hold controller at the nominal
// ladder levels nearest each placement's planned frequency.
func holdPrepared(env *Env, plan *mapping.Plan) (*Prepared, error) {
	ladder := env.Platform.Ladder
	levels := make([]int, len(plan.Placements))
	for i, pl := range plan.Placements {
		levels[i] = ladder.Nearest(pl.FGHz)
	}
	return &Prepared{
		Plan:        plan,
		Ladder:      ladder,
		Ctrl:        holdLevels{levels: levels},
		StartSteady: true,
	}, nil
}

// Patterned is the TDP fill re-placed with dark-silicon patterning
// (Figure 8): identical instance counts, but the active cores spread by
// a placement strategy instead of packed contiguously. Requires a
// single-core-type scenario (strategies pick from the whole die); on
// heterogeneous chips it degrades to the plain fill placement.
type Patterned struct {
	// Strategy names the mapping strategy (default "periphery").
	Strategy string
}

// NewPatterned returns the patterned-fill policy with defaults.
func NewPatterned() *Patterned { return &Patterned{Strategy: "periphery"} }

func (*Patterned) Name() string { return "patterned" }
func (p *Patterned) Info() string {
	return fmt.Sprintf("TDP fill re-placed with %s dark-silicon patterning (Figure 8)", p.Strategy)
}

func (pp *Patterned) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := fillPlan(env)
	if err != nil {
		return nil, err
	}
	strat, ok := mapping.Strategies()[pp.Strategy]
	if !ok {
		return nil, fmt.Errorf("%w: unknown placement strategy %q", ErrPolicy, pp.Strategy)
	}
	if len(env.Scenario.Types) == 1 {
		replaced, err := mapping.Replace(plan, env.Platform.Floorplan, strat)
		if err != nil {
			return nil, err
		}
		plan = replaced
	}
	return holdPrepared(env, plan)
}

// DsRem is the §4 resource-management heuristic (Khdr et al., DAC'15)
// run open loop: jointly chosen per-application instance counts and v/f
// levels under the TDTM constraint, periphery-first patterned.
type DsRem struct {
	// HeadroomC stops DsRem's exploit phase this far below TDTM
	// (mapping.DsRemOptions default 0.25 °C).
	HeadroomC float64
}

// NewDsRem returns the DsRem policy with defaults.
func NewDsRem() *DsRem { return &DsRem{HeadroomC: 0.25} }

func (*DsRem) Name() string { return "dsrem" }
func (*DsRem) Info() string {
	return "DsRem joint core-count + v/f selection under TDTM (§4), held open loop"
}

func (d *DsRem) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mix := make([]apps.App, 0, len(env.Scenario.Spec.Apps))
	for _, m := range env.Scenario.Spec.Apps {
		a, err := env.Scenario.AppFor(m)
		if err != nil {
			return nil, err
		}
		mix = append(mix, a)
	}
	p := env.Platform
	plan, err := mapping.DsRem(p.Floorplan, mix, p,
		mapping.EvaluatorFunc(p.PeakTemp), mapping.DsRemOptions{
			TcritC:    p.TDTM,
			Levels:    p.Ladder.Levels(),
			HeadroomC: d.HeadroomC,
		})
	if err != nil {
		return nil, err
	}
	if len(plan.Placements) == 0 {
		return nil, fmt.Errorf("%w: DsRem kept no instances on this scenario", ErrPolicy)
	}
	return holdPrepared(env, plan)
}

// Params implements Tunable.
func (d *DsRem) Params() []Param {
	return []Param{{Name: "headroom_c", Value: d.HeadroomC, Min: 0.05, Max: 1.05, Step: 0.2}}
}

// WithParams implements Tunable.
func (d *DsRem) WithParams(vals map[string]float64) (Policy, error) {
	nd := *d
	for name, v := range vals {
		switch name {
		case "headroom_c":
			if v <= 0 {
				return nil, fmt.Errorf("%w: dsrem headroom_c %g", ErrPolicy, v)
			}
			nd.HeadroomC = v
		default:
			return nil, fmt.Errorf("%w: dsrem has no parameter %q", ErrPolicy, name)
		}
	}
	return &nd, nil
}

// DarkGates is the DarkGates-style power-gating variant: per-placement
// closed boost loops (per-application DVFS islands), plus a power gate —
// an island that sits at the lowest level with its own peak still at the
// threshold is gated dark, and re-armed once it has cooled by the re-arm
// band. Gating cuts the island's power to zero (power gates kill leakage
// too), turning thermally hopeless instances into lateral cooling for
// their neighbours.
type DarkGates struct {
	// HoldBandC is each island loop's hold band below TDTM.
	HoldBandC float64
	// ReArmBandC is how far below TDTM an island's peak must fall
	// before a gated placement is re-armed.
	ReArmBandC float64
}

// NewDarkGates returns the power-gating policy with defaults.
func NewDarkGates() *DarkGates {
	return &DarkGates{HoldBandC: boost.DefaultHoldBandC, ReArmBandC: 1.0}
}

func (*DarkGates) Name() string { return "darkgates" }
func (*DarkGates) Info() string {
	return "per-placement boost islands with DarkGates-style power gating of hopeless islands"
}

func (d *DarkGates) Prepare(ctx context.Context, env *Env) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, err := fillPlan(env)
	if err != nil {
		return nil, err
	}
	p := env.Platform
	ladder := p.BoostLadder
	start, err := boost.FindConstantLevel(p, plan, ladder, p.TDTM)
	if err != nil {
		return nil, err
	}
	ctrl, err := newDarkGatesCtrl(p.TDTM, d.HoldBandC, d.ReArmBandC, start,
		len(ladder.Points)-1, len(plan.Placements))
	if err != nil {
		return nil, err
	}
	return &Prepared{Plan: plan, Ladder: ladder, Ctrl: ctrl, StartSteady: true}, nil
}

// Params implements Tunable.
func (d *DarkGates) Params() []Param {
	return []Param{
		{Name: "hold_band_c", Value: d.HoldBandC, Min: 0, Max: 2, Step: 0.1},
		{Name: "rearm_band_c", Value: d.ReArmBandC, Min: 0.2, Max: 5, Step: 0.4},
	}
}

// WithParams implements Tunable.
func (d *DarkGates) WithParams(vals map[string]float64) (Policy, error) {
	nd := *d
	for name, v := range vals {
		switch name {
		case "hold_band_c":
			if v < 0 {
				return nil, fmt.Errorf("%w: darkgates hold_band_c %g", ErrPolicy, v)
			}
			nd.HoldBandC = v
		case "rearm_band_c":
			if v <= 0 {
				return nil, fmt.Errorf("%w: darkgates rearm_band_c %g", ErrPolicy, v)
			}
			nd.ReArmBandC = v
		default:
			return nil, fmt.Errorf("%w: darkgates has no parameter %q", ErrPolicy, name)
		}
	}
	return &nd, nil
}

// darkGatesCtrl is DarkGates' decision loop: one closed boost loop per
// placement, with the gating overlay described on DarkGates.
type darkGatesCtrl struct {
	loops      []*boost.Closed
	thresholdC float64
	reArmC     float64
	levels     []int
	gated      []bool
}

func newDarkGatesCtrl(thresholdC, holdBandC, reArmC float64, start, maxLevel, placements int) (*darkGatesCtrl, error) {
	if placements < 1 {
		return nil, fmt.Errorf("%w: darkgates needs at least one placement", ErrPolicy)
	}
	c := &darkGatesCtrl{
		thresholdC: thresholdC,
		reArmC:     reArmC,
		levels:     make([]int, placements),
		gated:      make([]bool, placements),
	}
	for i := 0; i < placements; i++ {
		loop, err := boost.NewClosed(thresholdC, start, maxLevel)
		if err != nil {
			return nil, err
		}
		loop.HoldBandC = holdBandC
		c.loops = append(c.loops, loop)
		c.levels[i] = start
	}
	return c, nil
}

func (c *darkGatesCtrl) Start() Decision {
	for i, loop := range c.loops {
		c.levels[i] = loop.Current()
	}
	return Decision{Levels: c.levels, Gated: c.gated}
}

func (c *darkGatesCtrl) Next(obs Observation) Decision {
	for i, loop := range c.loops {
		peak := obs.PeakC
		if i < len(obs.PlacementPeakC) {
			peak = obs.PlacementPeakC[i]
		}
		if c.gated[i] {
			// A gated island holds its (bottom) level dark until it has
			// cooled by the re-arm band; its loop state is frozen too.
			if peak < c.thresholdC-c.reArmC {
				c.gated[i] = false
			}
			continue
		}
		c.levels[i] = loop.Next(peak)
		if c.levels[i] == 0 && peak >= c.thresholdC {
			// Bottomed out and still at the threshold: this island cannot
			// be saved by DVFS alone — gate it dark.
			c.gated[i] = true
		}
	}
	return Decision{Levels: c.levels, Gated: c.gated}
}

var (
	_ Policy  = Constant{}
	_ Tunable = (*Boost)(nil)
	_ Policy  = UnsafeBoost{}
	_ Policy  = TDPMap{}
	_ Policy  = (*Patterned)(nil)
	_ Tunable = (*DsRem)(nil)
	_ Tunable = (*DarkGates)(nil)
)
