package mapping

import (
	"fmt"
	"math"

	"darksim/internal/apps"
	"darksim/internal/floorplan"
)

// TDPMapOptions configures the TDPmap baseline policy.
type TDPMapOptions struct {
	// TDPW is the chip power budget in watts.
	TDPW float64
	// FGHz is the (maximum) v/f level every instance runs at.
	FGHz float64
	// TempC is the temperature estimate used to evaluate Equation (1)
	// (TDP policies budget at the critical temperature; default 80).
	TempC float64
	// Threads per instance (default 8, the paper's Fig. 5/7/9 setting).
	Threads int
	// Strategy places the active cores (default Contiguous, the naive
	// policy TDPmap represents).
	Strategy Strategy
	// AllowPartialInstance lets the last instance run fewer threads to
	// consume the remaining budget (the paper's application model allows
	// 1..8 threads per instance).
	AllowPartialInstance bool
	// MaxInstances caps the instance count (0 = bounded by cores only).
	MaxInstances int
}

// TDPMap implements the TDP-based mapping policy of §4: map instances of
// the application with Threads threads each, all at FGHz, until the next
// instance would exceed the TDP; remaining cores stay dark.
func TDPMap(fp *floorplan.Floorplan, app apps.App, pow NodePowerer, opt TDPMapOptions) (*Plan, error) {
	if opt.TDPW <= 0 {
		return nil, fmt.Errorf("%w: TDP %g W", ErrMapping, opt.TDPW)
	}
	if opt.FGHz <= 0 {
		return nil, fmt.Errorf("%w: frequency %g GHz", ErrMapping, opt.FGHz)
	}
	if opt.TempC == 0 {
		opt.TempC = 80
	}
	if opt.Threads == 0 {
		opt.Threads = apps.MaxThreadsPerInstance
	}
	if opt.Threads < 1 || opt.Threads > apps.MaxThreadsPerInstance {
		return nil, fmt.Errorf("%w: %d threads per instance", ErrMapping, opt.Threads)
	}
	if opt.Strategy == nil {
		opt.Strategy = Contiguous
	}
	perCore, err := pow.CorePower(app, opt.FGHz, opt.TempC)
	if err != nil {
		return nil, err
	}
	if perCore <= 0 {
		return nil, fmt.Errorf("%w: non-positive per-core power", ErrMapping)
	}
	instances, partial := FillCount(opt.TDPW, perCore, fp.NumBlocks(), opt.Threads, opt.MaxInstances, opt.AllowPartialInstance)
	return Pack(fp, opt.Strategy, instances*opt.Threads+partial, app, opt.Threads, opt.FGHz)
}

// Evaluator reports the steady-state peak temperature of a plan; the
// DsRem policy uses it to steer its repair/exploit loop. internal/core
// provides the standard thermal-model-backed implementation.
type Evaluator interface {
	PeakTemp(plan *Plan) (float64, error)
}

// EvaluatorFunc adapts a function to Evaluator.
type EvaluatorFunc func(plan *Plan) (float64, error)

// PeakTemp implements Evaluator.
func (f EvaluatorFunc) PeakTemp(plan *Plan) (float64, error) { return f(plan) }

// DsRemOptions configures the DsRem policy.
type DsRemOptions struct {
	// TcritC is the temperature constraint (default 80 °C).
	TcritC float64
	// Levels is the ascending DVFS frequency ladder (GHz). Required.
	Levels []float64
	// Threads per instance (default 8).
	Threads int
	// Strategy places active cores (default PeripheryFirst — DsRem
	// builds on dark-silicon patterning).
	Strategy Strategy
	// TempC is the Equation (1) evaluation temperature (default TcritC).
	TempC float64
	// HeadroomC stops the exploit phase when the peak is within this
	// margin of Tcrit (default 0.25 °C).
	HeadroomC float64
}

// DsRem implements the resource-management heuristic of §4 (Khdr et al.,
// DAC'15): jointly determine the number of active cores per application
// and their v/f levels such that overall performance is maximized under
// the temperature constraint. The mix receives an equal share of the chip;
// the policy then (phase 1) starts every application at the top v/f level
// with a full complement of instances, (phase 2) repairs thermal
// violations by lowering the v/f of the application with the smallest
// performance loss per watt saved — dropping whole instances when a ladder
// bottoms out — and (phase 3) exploits remaining headroom by raising the
// v/f of the application with the largest performance gain.
func DsRem(fp *floorplan.Floorplan, mix []apps.App, pow NodePowerer, eval Evaluator, opt DsRemOptions) (*Plan, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("%w: empty application mix", ErrMapping)
	}
	if len(opt.Levels) == 0 {
		return nil, fmt.Errorf("%w: DsRem needs a DVFS ladder", ErrMapping)
	}
	if opt.TcritC == 0 {
		opt.TcritC = 80
	}
	if opt.Threads == 0 {
		opt.Threads = apps.MaxThreadsPerInstance
	}
	if opt.Strategy == nil {
		opt.Strategy = PeripheryFirst
	}
	if opt.TempC == 0 {
		opt.TempC = opt.TcritC
	}
	if opt.HeadroomC == 0 {
		opt.HeadroomC = 0.25
	}

	// Per-app state: instance count and ladder level index.
	type state struct {
		app       apps.App
		instances int
		level     int
	}
	top := len(opt.Levels) - 1
	share := fp.NumBlocks() / len(mix)
	states := make([]state, len(mix))
	for i, a := range mix {
		states[i] = state{app: a, instances: share / opt.Threads, level: top}
		if states[i].instances < 1 {
			return nil, fmt.Errorf("%w: chip share %d too small for %d threads", ErrMapping, share, opt.Threads)
		}
	}

	build := func() (*Plan, error) {
		total := 0
		for _, s := range states {
			total += s.instances * opt.Threads
		}
		cores, err := opt.Strategy(fp, total)
		if err != nil {
			return nil, err
		}
		plan := &Plan{NumCores: fp.NumBlocks()}
		for _, s := range states {
			n := s.instances * opt.Threads
			plan.AddInstances(s.app, cores[:n], opt.Threads, opt.Levels[s.level])
			cores = cores[n:]
		}
		return plan, plan.Validate()
	}

	gipsOf := func(s state) float64 {
		return float64(s.instances) * s.app.InstanceGIPS(opt.Levels[s.level], opt.Threads)
	}
	powerOf := func(s state) (float64, error) {
		pc, err := pow.CorePower(s.app, opt.Levels[s.level], opt.TempC)
		if err != nil {
			return 0, err
		}
		return float64(s.instances*opt.Threads) * pc, nil
	}

	plan, err := build()
	if err != nil {
		return nil, err
	}
	peak, err := eval.PeakTemp(plan)
	if err != nil {
		return nil, err
	}

	// Phase 2: repair thermal violations.
	const maxIter = 10000
	for iter := 0; peak > opt.TcritC && iter < maxIter; iter++ {
		// Candidate moves: lower one app's level, or drop one instance
		// if that app is already at the bottom. Pick the move with the
		// least GIPS loss per watt saved.
		best, bestScore := -1, math.Inf(1)
		bestIsDrop := false
		for i, s := range states {
			before := gipsOf(s)
			pBefore, err := powerOf(s)
			if err != nil {
				return nil, err
			}
			var after, pAfter float64
			var isDrop bool
			if s.level > 0 {
				ns := s
				ns.level--
				after = gipsOf(ns)
				pAfter, err = powerOf(ns)
			} else if s.instances > 0 {
				ns := s
				ns.instances--
				isDrop = true
				after = gipsOf(ns)
				pAfter, err = powerOf(ns)
			} else {
				continue
			}
			if err != nil {
				return nil, err
			}
			saved := pBefore - pAfter
			if saved <= 0 {
				continue
			}
			score := (before - after) / saved
			if score < bestScore {
				best, bestScore, bestIsDrop = i, score, isDrop
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w: cannot satisfy %.1f °C even with everything off", ErrMapping, opt.TcritC)
		}
		if bestIsDrop {
			states[best].instances--
		} else {
			states[best].level--
		}
		if plan, err = build(); err != nil {
			return nil, err
		}
		if peak, err = eval.PeakTemp(plan); err != nil {
			return nil, err
		}
	}

	// Phase 3: exploit headroom by raising levels (greedy, with revert).
	blocked := make([]bool, len(states))
	for peak <= opt.TcritC-opt.HeadroomC {
		best, bestGain := -1, 0.0
		for i, s := range states {
			if blocked[i] || s.level >= top || s.instances == 0 {
				continue
			}
			ns := s
			ns.level++
			if gain := gipsOf(ns) - gipsOf(s); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		states[best].level++
		candidate, err := build()
		if err != nil {
			return nil, err
		}
		candPeak, err := eval.PeakTemp(candidate)
		if err != nil {
			return nil, err
		}
		if candPeak > opt.TcritC {
			states[best].level--
			blocked[best] = true
			continue
		}
		plan, peak = candidate, candPeak
	}
	return plan, nil
}
