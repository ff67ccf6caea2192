// Package rotate implements spatio-temporal dark-silicon rotation: the
// same workload is periodically migrated across the chip so that every
// core alternates between active and dark phases. With a rotation period
// shorter than the die-local thermal time constant, each site sees only
// the duty-cycled average of its power while the chip's total power — and
// therefore its performance — is unchanged, which lowers the peak
// temperature. This is the "sophisticated spatio-temporal mapping" the
// paper's abstract refers to, and the mechanism behind dark-silicon
// management schemes such as DaSim and Hayat that the paper surveys in §4.
package rotate

import (
	"errors"
	"fmt"
	"math"

	"darksim/internal/apps"
	"darksim/internal/floorplan"
	"darksim/internal/mapping"
	"darksim/internal/sim"
)

// Schedule cycles through a fixed set of phase plans.
type Schedule struct {
	// Phases are the rotated plans, visited round-robin.
	Phases []*mapping.Plan
	// PeriodS is the dwell time per phase in seconds.
	PeriodS float64
}

// ErrRotate is returned for invalid rotation requests.
var ErrRotate = errors.New("rotate: invalid")

// Options configures New.
type Options struct {
	// Instances of the application, 8 threads each.
	Instances int
	// FGHz is the initial frequency level of every placement.
	FGHz float64
	// Phases is the number of rotation phases (≥ 2).
	Phases int
	// PeriodS is the dwell time per phase (default 20 ms — well below
	// the package-level thermal time constants, above the control
	// period).
	PeriodS float64
	// Base is the placement ordering rotated over (default
	// mapping.PeripheryFirst).
	Base mapping.Strategy
}

// New builds a rotation schedule: the base strategy's full-chip ordering
// is treated as a ring, and phase i places the workload into the window
// starting at offset i·N/phases. Windows of consecutive phases overlap
// when the workload needs more than N/phases cores; overlapped cores are
// simply active in both phases.
func New(fp *floorplan.Floorplan, app apps.App, opt Options) (*Schedule, error) {
	if opt.Instances <= 0 {
		return nil, fmt.Errorf("%w: instances = %d", ErrRotate, opt.Instances)
	}
	if opt.FGHz <= 0 {
		return nil, fmt.Errorf("%w: frequency %g GHz", ErrRotate, opt.FGHz)
	}
	if opt.Phases < 2 {
		return nil, fmt.Errorf("%w: need ≥ 2 phases, got %d", ErrRotate, opt.Phases)
	}
	if opt.PeriodS == 0 {
		opt.PeriodS = 20e-3
	}
	if opt.PeriodS <= 0 {
		return nil, fmt.Errorf("%w: period %g s", ErrRotate, opt.PeriodS)
	}
	if opt.Base == nil {
		opt.Base = mapping.PeripheryFirst
	}
	need := opt.Instances * apps.MaxThreadsPerInstance
	n := fp.NumBlocks()
	if need > n {
		return nil, fmt.Errorf("%w: %d cores needed on a %d-core chip", ErrRotate, need, n)
	}
	ring, err := opt.Base(fp, n)
	if err != nil {
		return nil, err
	}
	sched := &Schedule{PeriodS: opt.PeriodS}
	for phase := 0; phase < opt.Phases; phase++ {
		offset := phase * n / opt.Phases
		cores := make([]int, need)
		for k := range cores {
			cores[k] = ring[(offset+k)%n]
		}
		plan := &mapping.Plan{NumCores: n}
		plan.AddInstances(app, cores, apps.MaxThreadsPerInstance, opt.FGHz)
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		sched.Phases = append(sched.Phases, plan)
	}
	return sched, nil
}

// PlanAt implements sim.PlanProvider.
func (s *Schedule) PlanAt(t float64) *mapping.Plan {
	if len(s.Phases) == 0 {
		return nil
	}
	idx := int(math.Floor(t/s.PeriodS)) % len(s.Phases)
	if idx < 0 {
		idx += len(s.Phases)
	}
	return s.Phases[idx]
}

var _ sim.PlanProvider = (*Schedule)(nil)
