package sim

import (
	"context"
	"fmt"

	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/metrics"
	"darksim/internal/thermal"
	"darksim/internal/vf"
)

// Observation is what a PlacementController sees at the top of each
// control period.
type Observation struct {
	// Step is the control-period index; TimeS its simulated start time.
	Step  int
	TimeS float64
	// PeakC is the chip peak core temperature; PlacementPeakC each
	// placement's own hottest core. The slice is owned by the engine
	// and must not be retained.
	PeakC          float64
	PlacementPeakC []float64
}

// Decision is a controller's output for the coming period: one ladder
// level per placement of the current plan plus an optional power-gating
// mask (nil means nothing gated). Both slices are owned by the
// controller; the engine copies them.
type Decision struct {
	Levels []int
	Gated  []bool
}

// PlacementController decides one ladder level per placement each
// control period — per-application DVFS islands, power gating, or (via
// ChipWide) one chip-wide level. Implementations own their state and
// serve one lane at a time.
type PlacementController interface {
	// Start returns the initial decision without advancing state; the
	// engine uses it to pick the StartSteady operating point.
	Start() Decision
	// Next returns the decision for the coming control period.
	Next(obs Observation) Decision
}

// chipWide adapts a chip-wide Controller (the §6 boosting loops) to a
// PlacementController: every placement gets the same clamped level,
// driven by the chip peak.
type chipWide struct {
	ctrl   Controller
	ladder *vf.Ladder
	levels []int
}

// ChipWide drives every placement of the lane's plan with ctrl's one
// level on ladder; placements is the initial plan's placement count.
func ChipWide(ctrl Controller, ladder *vf.Ladder, placements int) PlacementController {
	return &chipWide{ctrl: ctrl, ladder: ladder, levels: make([]int, placements)}
}

func (c *chipWide) set(level, placements int) Decision {
	level = c.ladder.Clamp(level)
	if cap(c.levels) < placements {
		c.levels = make([]int, placements)
	}
	c.levels = c.levels[:placements]
	for i := range c.levels {
		c.levels[i] = level
	}
	return Decision{Levels: c.levels}
}

func (c *chipWide) Start() Decision { return c.set(c.ctrl.Current(), len(c.levels)) }

func (c *chipWide) Next(obs Observation) Decision {
	return c.set(c.ctrl.Next(obs.PeakC), len(obs.PlacementPeakC))
}

// Period is a lane's account of one exactly stepped control period,
// handed to its Hook. The slices are the engine's buffers, valid only
// during the call: hooks must not retain or mutate them.
type Period struct {
	Step  int
	TimeS float64
	// Levels is the decided ladder level per placement (all 0 when the
	// DTM override fired, see DTM); Gated the decision's gating mask.
	Levels []int
	Gated  []bool
	// PlacementW is each placement's summed core power; TempsC and
	// PowerW the per-core temperatures after the step and the per-core
	// power during it.
	PlacementW []float64
	TempsC     []float64
	PowerW     []float64
	// TotalW is the chip power, MaxCoreW the hottest single core's
	// power, PeakC the peak core temperature after the step, GIPS and
	// ActiveCores the throughput and powered-core count.
	TotalW      float64
	MaxCoreW    float64
	PeakC       float64
	GIPS        float64
	ActiveCores int
	DTM         bool
}

// Lane is one member of a lockstep run: a plan provider, a
// per-placement controller and an optional per-period hook, stepped on
// its own ladder. RunLanes fills Result, or Err when the lane retires.
type Lane struct {
	Plans  PlanProvider
	Ctrl   PlacementController
	Ladder *vf.Ladder
	// StartSteady starts the lane at the steady state of its controller's
	// Start decision (ungated placements) instead of a cold chip.
	StartSteady bool
	// Hook, when set, runs after every control period; a non-nil error
	// retires the lane. A lane with a hook always steps exactly.
	Hook func(*Period) error

	Result Result
	Err    error
}

// laneState is the engine's per-lane working state.
type laneState struct {
	*Lane
	tr      *thermal.Transient
	current *mapping.Plan
	work    mapping.Plan // frequencies follow the decisions

	levels            []int
	gated             []bool
	peaks, placementW []float64
	temps, power      []float64

	// coefs caches the fused power coefficients per (placement, clamped
	// level); set marks the filled entries. Adopting a plan clears both.
	coefs []core.PowerCoef
	set   []bool

	peak, fGHz, totalP, totalG, maxCoreW float64
	active                               int
	dtm                                  bool
	energy                               metrics.EnergyMeter
	period                               Period

	// fixed is the lane's FixedLevelController when it may snap quiet
	// intervals; ask is the next step at which it may try a snap, resume
	// the next step it takes part in after holding a snapped state; done
	// marks a finished or retired lane.
	fixed       FixedLevelController
	ask, resume int
	done        bool
}

// engine is one RunLanes call's shared configuration.
type engine struct {
	p                  *core.Platform
	opt                Options
	steps, recordEvery int
	// maxSafeC is the DTM threshold less the quiet-lane guard band.
	maxSafeC float64
}

// RunLanes advances every lane in lockstep on one platform: each control
// period, every live lane's controller decides (with the DTM emergency
// clamp), its Equation (1) power is evaluated at its current
// temperatures, and one TransientBatch.StepAll advances all of them
// through a shared sweep of the cached factor. Per lane the arithmetic
// is bit-for-bit that of a solo run, so lanes never perturb each other.
//
// Under StepAuto a lane whose controller is ChipWide over a
// FixedLevelController, whose plan is static and which has no hook is
// quiet: once per recording interval it asks whether its state sits on
// the steady state of its frozen power map, and if so snaps onto it and
// holds until the next recording point (see decide). Every other period
// of every lane is an exact step. opt.StartSteady is ignored (each lane
// sets its own).
//
// A lane error (invalid plan or decision, failing hook) retires that
// lane into its Err while the others race on. Only infrastructure
// errors are returned: invalid options, a thermal failure, or the
// context, which is checked once per control period.
func RunLanes(ctx context.Context, p *core.Platform, lanes []*Lane, opt Options) error {
	if p == nil {
		return fmt.Errorf("%w: nil argument", ErrRun)
	}
	e, err := newEngine(p, opt)
	if err != nil || len(lanes) == 0 {
		return err
	}
	batch, err := p.Thermal.NewTransientBatch(e.opt.ControlPeriod, len(lanes))
	if err != nil {
		return err
	}
	states := make([]*laneState, len(lanes))
	powers := make([][]float64, len(lanes))
	temps := make([][]float64, len(lanes))
	active := make([]bool, len(lanes))
	live := 0
	for i, l := range lanes {
		l.Result, l.Err = Result{}, nil
		s := &laneState{Lane: l, tr: batch.Transient(i)}
		states[i] = s
		if err := s.start(e); err != nil {
			s.retire(err)
			continue
		}
		powers[i], temps[i] = s.power, s.temps
		live++
	}

	// retire records a lane failure; under a cancelled context the
	// failure is the cancellation's doing and the run stops instead.
	retire := func(s *laneState, err error) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.retire(err)
		live--
		return nil
	}
	for step := 0; step < e.steps && live > 0; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, s := range states {
			active[i] = false
			if s.done || step < s.resume {
				continue
			}
			exact, err := s.decide(e, step)
			if err != nil {
				if err := retire(s, err); err != nil {
					return err
				}
				continue
			}
			active[i] = exact
		}
		if err := batch.StepAll(powers, active, temps); err != nil {
			return err
		}
		now := float64(step) * e.opt.ControlPeriod
		for i, s := range states {
			if !active[i] {
				continue
			}
			err := s.account(e, 1, now, step%e.recordEvery == 0 || step == e.steps-1)
			if err == nil && s.Hook != nil {
				err = s.hook(step, now)
			}
			if err != nil {
				if err := retire(s, err); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range states {
		if !s.done {
			s.Result.AvgGIPS /= float64(e.steps)
			s.Result.EnergyJ = s.energy.TotalJ()
		}
	}
	return nil
}

// newEngine validates the options and fills their defaults.
func newEngine(p *core.Platform, opt Options) (*engine, error) {
	if opt.Duration <= 0 {
		return nil, fmt.Errorf("%w: duration %g s", ErrRun, opt.Duration)
	}
	if opt.ControlPeriod == 0 {
		opt.ControlPeriod = 1e-3
	}
	if opt.ControlPeriod <= 0 || opt.ControlPeriod > opt.Duration {
		return nil, fmt.Errorf("%w: control period %g s", ErrRun, opt.ControlPeriod)
	}
	if opt.RecordPoints == 0 {
		opt.RecordPoints = 1000
	}
	if opt.EmergencyC == 0 {
		opt.EmergencyC = p.TDTM + 5
	}
	steps := int(opt.Duration/opt.ControlPeriod + 0.5)
	return &engine{
		p:           p,
		opt:         opt,
		steps:       steps,
		recordEvery: max(steps/opt.RecordPoints, 1),
		maxSafeC:    opt.EmergencyC - quietDTMGuardC,
	}, nil
}

func (s *laneState) retire(err error) {
	s.Err = err
	s.done = true
}

// start validates the lane, adopts its first plan and decision, and sets
// the initial thermal state.
func (s *laneState) start(e *engine) error {
	if s.Plans == nil || s.Ctrl == nil || s.Ladder == nil {
		return fmt.Errorf("%w: nil argument in lane", ErrRun)
	}
	if err := s.adopt(e.p, s.Plans.PlanAt(0)); err != nil {
		return err
	}
	if err := s.install(s.Ctrl.Start()); err != nil {
		return err
	}
	s.setFreqs()
	s.peak, _ = s.tr.PeakBlockTemp()
	if s.StartSteady {
		steady := &mapping.Plan{NumCores: s.work.NumCores}
		for i, pl := range s.work.Placements {
			if !s.gated[i] {
				steady.Placements = append(steady.Placements, pl)
			}
		}
		_, power, err := e.p.SteadyTemps(steady, e.opt.Mode)
		if err != nil {
			return err
		}
		if err := s.tr.SetSteadyState(power); err != nil {
			return err
		}
		s.peak, _ = s.tr.PeakBlockTemp()
	}
	s.Result.MaxTempC = s.peak
	s.temps = s.tr.BlockTemps()
	s.power = make([]float64, e.p.NumCores())
	if cw, ok := s.Ctrl.(*chipWide); ok && e.opt.StepMode == StepAuto && s.Hook == nil {
		fixed, _ := cw.ctrl.(FixedLevelController)
		if _, static := s.Plans.(StaticPlan); fixed != nil && static {
			s.fixed = fixed
		}
	}
	return nil
}

// adopt switches the lane to plan next (a no-op for the current plan),
// validating it and resetting the per-placement buffers.
func (s *laneState) adopt(p *core.Platform, next *mapping.Plan) error {
	if next == s.current {
		return nil
	}
	if next == nil {
		return fmt.Errorf("%w: provider returned nil plan", ErrRun)
	}
	if err := next.Validate(); err != nil {
		return err
	}
	if next.NumCores != p.NumCores() {
		return fmt.Errorf("%w: plan has %d cores, platform %d", ErrRun, next.NumCores, p.NumCores())
	}
	s.current = next
	s.work.NumCores = next.NumCores
	s.work.Placements = append(s.work.Placements[:0], next.Placements...)
	n := len(next.Placements)
	s.levels = make([]int, n)
	s.gated = make([]bool, n)
	s.peaks = make([]float64, n)
	s.placementW = make([]float64, n)
	s.coefs = make([]core.PowerCoef, n*len(s.Ladder.Points))
	s.set = make([]bool, len(s.coefs))
	return nil
}

// install validates a decision against the current plan and copies it.
func (s *laneState) install(d Decision) error {
	n := len(s.work.Placements)
	if len(d.Levels) != n || (d.Gated != nil && len(d.Gated) != n) {
		return fmt.Errorf("%w: controller returned %d levels / %d gates for %d placements",
			ErrRun, len(d.Levels), len(d.Gated), n)
	}
	copy(s.levels, d.Levels)
	if d.Gated == nil {
		clear(s.gated)
	} else {
		copy(s.gated, d.Gated)
	}
	return nil
}

// setFreqs writes the decided frequencies into the working plan and
// notes the highest one for the LevelGHz series.
func (s *laneState) setFreqs() {
	s.fGHz = 0
	for i := range s.work.Placements {
		f := s.Ladder.Points[s.Ladder.Clamp(s.levels[i])].FGHz
		s.work.Placements[i].FGHz = f
		if f > s.fGHz {
			s.fGHz = f
		}
	}
}

// decide runs the pre-solve half of a control period: plan adoption,
// the decision, DTM clamp and power evaluation. It reports whether the
// lane joins this period's batched step; a quiet lane that snaps instead
// records on its own.
func (s *laneState) decide(e *engine, step int) (bool, error) {
	now := float64(step) * e.opt.ControlPeriod
	if err := s.adopt(e.p, s.Plans.PlanAt(now)); err != nil {
		return false, err
	}
	// The quiet-lane rule: a quiet lane asks once per recording interval
	// whether its state sits on the steady state of its frozen power
	// map. If so it snaps there and holds until the next recording
	// point; if not — off the steady state, or the period starts or
	// would settle within the guard band of the DTM threshold — it steps
	// exactly up to that point before asking again.
	if s.fixed != nil && step >= s.ask {
		end := min(step+(e.recordEvery-step%e.recordEvery)%e.recordEvery, e.steps-1)
		s.ask = end + 1
		if s.peak <= e.maxSafeC {
			level := s.Ladder.Clamp(s.fixed.FixedLevel())
			for i := range s.levels {
				s.levels[i] = level
			}
			if err := s.evalPower(e); err != nil {
				return false, err
			}
			next, ok, err := s.tr.AdvanceQuiet(s.power, stepAutoSnapTolC, e.maxSafeC)
			if err != nil {
				return false, err
			}
			if ok {
				copy(s.temps, next)
				s.resume = end + 1
				return false, s.account(e, end-step+1, float64(end)*e.opt.ControlPeriod, true)
			}
		}
	}

	for i, pl := range s.work.Placements {
		pp := 0.0
		for _, c := range pl.Cores {
			if t := s.temps[c]; t > pp {
				pp = t
			}
		}
		s.peaks[i] = pp
	}
	if err := s.install(s.Ctrl.Next(Observation{
		Step: step, TimeS: now, PeakC: s.peak, PlacementPeakC: s.peaks,
	})); err != nil {
		return false, err
	}
	s.dtm = s.peak > e.opt.EmergencyC
	if s.dtm {
		clear(s.levels)
		s.Result.DTMEvents++
	}
	return true, s.evalPower(e)
}

// evalPower sets the decided frequencies and fills the power map from
// the current temperatures through the fused coefficients — bit-for-bit
// core.Platform.PlacementCorePowerAt, see core.PowerCoef. Gated
// placements draw nothing.
func (s *laneState) evalPower(e *engine) error {
	s.setFreqs()
	clear(s.power)
	s.totalP, s.totalG, s.maxCoreW, s.active = 0, 0, 0, 0
	nLevels := len(s.Ladder.Points)
	for i, pl := range s.work.Placements {
		s.placementW[i] = 0
		if s.gated[i] {
			continue
		}
		s.totalG += pl.GIPS()
		s.active += len(pl.Cores)
		ci := i*nLevels + s.Ladder.Clamp(s.levels[i])
		if !s.set[ci] {
			c, err := e.p.PowerCoefFor(pl, e.opt.Mode)
			if err != nil {
				return err
			}
			s.coefs[ci], s.set[ci] = c, true
		}
		coef := s.coefs[ci]
		for _, c := range pl.Cores {
			cp := coef.At(s.temps[c])
			s.power[c] = cp
			s.placementW[i] += cp
			s.totalP += cp
			if cp > s.maxCoreW {
				s.maxCoreW = cp
			}
		}
	}
	return nil
}

// account books k periods of the current power map ending at time at
// into the lane's Result once the thermal state has advanced.
func (s *laneState) account(e *engine, k int, at float64, record bool) error {
	s.peak = 0
	for _, t := range s.temps {
		if t > s.peak {
			s.peak = t
		}
	}
	if err := s.energy.Add(float64(k)*e.opt.ControlPeriod, s.totalP); err != nil {
		return err
	}
	r := &s.Result
	r.PeakPowerW = max(r.PeakPowerW, s.totalP)
	r.MaxTempC = max(r.MaxTempC, s.peak)
	r.AvgGIPS += s.totalG * float64(k)
	if record {
		r.Time.Append(at, at)
		r.GIPS.Append(at, s.totalG)
		r.PeakTemp.Append(at, s.peak)
		r.PowerW.Append(at, s.totalP)
		r.LevelGHz.Append(at, s.fGHz)
	}
	return nil
}

// hook hands the period just stepped to the lane's Hook.
func (s *laneState) hook(step int, now float64) error {
	s.period = Period{
		Step: step, TimeS: now,
		Levels: s.levels, Gated: s.gated, PlacementW: s.placementW,
		TempsC: s.temps, PowerW: s.power,
		TotalW: s.totalP, MaxCoreW: s.maxCoreW, PeakC: s.peak,
		GIPS: s.totalG, ActiveCores: s.active, DTM: s.dtm,
	}
	return s.Hook(&s.period)
}
