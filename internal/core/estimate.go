package core

import (
	"fmt"

	"darksim/internal/apps"
	"darksim/internal/mapping"
	"darksim/internal/metrics"
)

// TDPEstimate is the result of a power-budget-constrained estimation.
type TDPEstimate struct {
	Plan    *mapping.Plan
	Summary metrics.Summary
}

// DarkSiliconUnderTDP estimates dark silicon the way the state of the art
// the paper critiques does (§3.1): map 8-thread instances of the
// application at the given v/f level until the TDP is exhausted, count the
// rest of the chip as dark. The summary includes the resulting steady
// state peak temperature — which may exceed TDTM, the paper's Observation 1.
func (p *Platform) DarkSiliconUnderTDP(app apps.App, tdpW, fGHz float64) (TDPEstimate, error) {
	plan, err := mapping.TDPMap(p.Floorplan, app, p, mapping.TDPMapOptions{
		TDPW:                 tdpW,
		FGHz:                 fGHz,
		TempC:                p.TDTM,
		AllowPartialInstance: true,
	})
	if err != nil {
		return TDPEstimate{}, err
	}
	label := fmt.Sprintf("%s@%s TDP=%.0fW f=%.1fGHz", app.Name, p.Node, tdpW, fGHz)
	sum, err := p.Summarize(label, plan)
	if err != nil {
		return TDPEstimate{}, err
	}
	return TDPEstimate{Plan: plan, Summary: sum}, nil
}

// MaxCoresUnderTemp finds the largest number of active cores (8-thread
// instances of the application at fGHz, placed by the strategy) whose
// steady-state peak temperature stays at or below TDTM. Binary search over
// the core count; the peak is monotone in it for any fixed strategy
// ordering.
func (p *Platform) MaxCoresUnderTemp(app apps.App, fGHz float64, strategy mapping.Strategy) (int, error) {
	if strategy == nil {
		strategy = mapping.PeripheryFirst
	}
	feasible := func(n int) (bool, error) {
		if n == 0 {
			return true, nil
		}
		plan, err := mapping.Pack(p.Floorplan, strategy, n, app, apps.MaxThreadsPerInstance, fGHz)
		if err != nil {
			return false, err
		}
		peak, err := p.PeakTemp(plan)
		if err != nil {
			return false, err
		}
		return peak <= p.TDTM, nil
	}
	lo, hi := 0, p.NumCores()
	if ok, err := feasible(hi); err != nil {
		return 0, err
	} else if ok {
		return hi, nil
	}
	// Invariant: feasible(lo), !feasible(hi).
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// DarkSiliconUnderTemp estimates dark silicon with temperature as the
// constraint (§3.2): activate as many cores as the TDTM threshold allows.
func (p *Platform) DarkSiliconUnderTemp(app apps.App, fGHz float64, strategy mapping.Strategy) (TDPEstimate, error) {
	if strategy == nil {
		strategy = mapping.PeripheryFirst
	}
	n, err := p.MaxCoresUnderTemp(app, fGHz, strategy)
	if err != nil {
		return TDPEstimate{}, err
	}
	if n == 0 {
		return TDPEstimate{}, fmt.Errorf("%w: %s cannot run a single core at %.1f GHz below %.1f °C",
			ErrInfeasible, app.Name, fGHz, p.TDTM)
	}
	plan, err := mapping.Pack(p.Floorplan, strategy, n, app, apps.MaxThreadsPerInstance, fGHz)
	if err != nil {
		return TDPEstimate{}, err
	}
	label := fmt.Sprintf("%s@%s Tcrit=%.0f°C f=%.1fGHz", app.Name, p.Node, p.TDTM, fGHz)
	sum, err := p.Summarize(label, plan)
	if err != nil {
		return TDPEstimate{}, err
	}
	return TDPEstimate{Plan: plan, Summary: sum}, nil
}

// DVFSConfig is one (threads, frequency) operating choice for an
// application's instances.
type DVFSConfig struct {
	Threads int
	FGHz    float64
	GIPS    float64 // total over all instances
	PowerW  float64 // total over all instances (at TDTM)
	Cores   int     // total active cores
}

// BestDVFSConfig searches threads × ladder levels for the configuration
// that maximizes total GIPS of `instances` instances of the application
// under a TDP budget and the chip's core count (§3.3 scenario 2: the v/f
// level and thread count are chosen according to the application's TLP/ILP
// characteristics — which is exactly what maximizing under the model
// does: high-TLP apps keep more threads, high-ILP apps trade threads for
// frequency).
func (p *Platform) BestDVFSConfig(app apps.App, instances int, tdpW float64) (DVFSConfig, error) {
	if instances <= 0 {
		return DVFSConfig{}, fmt.Errorf("core: instances = %d", instances)
	}
	if tdpW <= 0 {
		return DVFSConfig{}, fmt.Errorf("core: TDP = %g W", tdpW)
	}
	var best DVFSConfig
	found := false
	for threads := 1; threads <= apps.MaxThreadsPerInstance; threads++ {
		cores := instances * threads
		if cores > p.NumCores() {
			continue
		}
		for _, lv := range p.Ladder.Points {
			cp, err := p.CorePower(app, lv.FGHz, p.TDTM)
			if err != nil {
				return DVFSConfig{}, err
			}
			total := float64(cores) * cp
			if total > tdpW {
				continue
			}
			gips := float64(instances) * app.InstanceGIPS(lv.FGHz, threads)
			if !found || gips > best.GIPS {
				best = DVFSConfig{Threads: threads, FGHz: lv.FGHz, GIPS: gips, PowerW: total, Cores: cores}
				found = true
			}
		}
	}
	if !found {
		return DVFSConfig{}, fmt.Errorf("%w: no (threads, f) fits %d instances of %s in %.0f W",
			ErrInfeasible, instances, app.Name, tdpW)
	}
	return best, nil
}
