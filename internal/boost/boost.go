// Package boost implements the DVFS controllers §6 of the paper compares:
//
//   - a closed-loop boosting controller in the style of Intel's Turbo
//     Boost: every control period the frequency of all cores is raised or
//     lowered by one 200 MHz step depending on whether the peak
//     temperature is below or above the 80 °C threshold, letting the
//     system oscillate around the critical temperature;
//   - a constant-frequency baseline: the highest ladder level whose
//     steady-state peak temperature stays below the threshold ("running at
//     the next available voltage/frequency would violate the critical
//     temperature").
package boost

import (
	"errors"
	"fmt"

	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/sim"
	"darksim/internal/vf"
)

// DefaultHoldBandC is the default hold band of the closed-loop controller:
// the level is raised only while the peak temperature is more than this
// margin below the threshold. Without a band, the 1 ms control period
// out-runs the package's thermal lag — the controller reaches deep boost
// before the heat soak arrives and overshoots the threshold by several
// degrees; with it, the loop oscillates within ≈1 °C of the threshold the
// way Figure 11 shows.
const DefaultHoldBandC = 0.2

// Closed is the Turbo-Boost-style closed-loop controller. It implements
// sim.Controller.
type Closed struct {
	// ThresholdC is the boost temperature threshold (TDTM).
	ThresholdC float64
	// HoldBandC is the hold band below the threshold (see
	// DefaultHoldBandC).
	HoldBandC float64
	// MaxLevel bounds how high the controller may climb (last ladder
	// index). Levels below 0 are clamped by the simulator.
	MaxLevel int

	level int
}

// NewClosed creates a closed-loop controller starting at startLevel.
func NewClosed(thresholdC float64, startLevel, maxLevel int) (*Closed, error) {
	if thresholdC <= 0 {
		return nil, fmt.Errorf("boost: threshold %g °C", thresholdC)
	}
	if startLevel < 0 || maxLevel < startLevel {
		return nil, fmt.Errorf("boost: levels start=%d max=%d", startLevel, maxLevel)
	}
	return &Closed{
		ThresholdC: thresholdC,
		HoldBandC:  DefaultHoldBandC,
		MaxLevel:   maxLevel,
		level:      startLevel,
	}, nil
}

// Next implements sim.Controller: one step up while comfortably below the
// threshold, one step down at or above it, hold inside the band.
func (c *Closed) Next(peakTempC float64) int {
	switch {
	case peakTempC >= c.ThresholdC:
		if c.level > 0 {
			c.level--
		}
	case peakTempC < c.ThresholdC-c.HoldBandC:
		if c.level < c.MaxLevel {
			c.level++
		}
	}
	return c.level
}

// Current implements sim.Controller.
func (c *Closed) Current() int { return c.level }

// Constant always returns the same ladder level. It implements
// sim.Controller.
type Constant struct {
	Level int
}

// Next implements sim.Controller.
func (c Constant) Next(float64) int { return c.Level }

// Current implements sim.Controller.
func (c Constant) Current() int { return c.Level }

// FixedLevel implements sim.FixedLevelController: the decision never
// depends on the observed temperature, so quiet intervals may be
// macro-stepped under sim.StepAuto.
func (c Constant) FixedLevel() int { return c.Level }

// Greedy is a deliberately unsafe boosting controller: it steps up every
// control period with the temperature check disabled, climbing to MaxLevel
// and staying there no matter how hot the chip runs. It exists as the
// negative control for the policy sandbox's assertion engine — a correct
// trace checker must catch it blowing through TDTM — and implements
// sim.Controller.
type Greedy struct {
	// MaxLevel bounds the climb (last ladder index).
	MaxLevel int

	level int
}

// NewGreedy creates a greedy controller starting at startLevel.
func NewGreedy(startLevel, maxLevel int) (*Greedy, error) {
	if startLevel < 0 || maxLevel < startLevel {
		return nil, fmt.Errorf("boost: levels start=%d max=%d", startLevel, maxLevel)
	}
	return &Greedy{MaxLevel: maxLevel, level: startLevel}, nil
}

// Next implements sim.Controller: always one step up, never down — the
// peak temperature is ignored.
func (g *Greedy) Next(float64) int {
	if g.level < g.MaxLevel {
		g.level++
	}
	return g.level
}

// Current implements sim.Controller.
func (g *Greedy) Current() int { return g.level }

var _ sim.Controller = (*Greedy)(nil)

// ErrNoSafeLevel is returned when even the lowest ladder level violates
// the thermal constraint.
var ErrNoSafeLevel = errors.New("boost: no thermally safe constant level")

// FindConstantLevel returns the highest ladder level at which the plan's
// steady-state peak temperature stays at or below tcritC. This is the
// §6 constant-frequency operating point.
func FindConstantLevel(p *core.Platform, plan *mapping.Plan, ladder *vf.Ladder, tcritC float64) (int, error) {
	if len(ladder.Points) == 0 {
		return 0, errors.New("boost: empty ladder")
	}
	work := &mapping.Plan{NumCores: plan.NumCores}
	work.Placements = append([]mapping.Placement(nil), plan.Placements...)
	// The steady-state peak is monotone in the level, so binary search.
	peakAt := func(level int) (float64, error) {
		f := ladder.Points[level].FGHz
		for i := range work.Placements {
			work.Placements[i].FGHz = f
		}
		return p.PeakTemp(work)
	}
	lo := 0
	hi := len(ladder.Points) - 1
	pk, err := peakAt(lo)
	if err != nil {
		return 0, err
	}
	if pk > tcritC {
		return 0, fmt.Errorf("%w: peak %.2f °C at %.1f GHz", ErrNoSafeLevel, pk, ladder.Points[lo].FGHz)
	}
	if pk, err = peakAt(hi); err != nil {
		return 0, err
	} else if pk <= tcritC {
		return hi, nil
	}
	// Invariant: safe(lo), !safe(hi).
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pk, err := peakAt(mid)
		if err != nil {
			return 0, err
		}
		if pk <= tcritC {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

var _ sim.Controller = (*Closed)(nil)
var _ sim.Controller = Constant{}
var _ sim.FixedLevelController = Constant{}
