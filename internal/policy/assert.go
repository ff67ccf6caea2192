package policy

import (
	"fmt"
	"math"
)

// The assertion engine generalizes internal/verify's invariant idea from
// "check a rendered figure once" to "check every step of a simulated
// trace": assertions are declarative data — a predicate kind plus the
// signal and bounds it constrains — evaluated over Step sequences, and a
// failure names the first violating step with its full context. The
// checks run in process over the sandbox's in-memory trace, as a run-time
// monitor; traces are never written out.

// Step is one control period of a sandbox run: the decision the policy
// made, the power partition it produced and the thermal ground truth
// after the thermal model advanced.
type Step struct {
	// Index is the control-period number (0-based); TimeS its start time.
	Index int
	TimeS float64
	// Levels is the ladder level the policy set per placement; Gated
	// marks placements the policy power-gated for this period.
	Levels []int
	Gated  []bool
	// PlacementW is each placement's summed core power this period;
	// TotalW the chip total and MaxCoreW the hottest single core's power
	// (what the TSP budget bounds).
	PlacementW []float64
	TotalW     float64
	MaxCoreW   float64
	// PeakC is the peak core temperature after the thermal step; GIPS
	// and ActiveCores the throughput and powered-core count of the
	// period; TSPPerCoreW the worst-case thermal safe power of the
	// period's active set (0 when not evaluated).
	PeakC       float64
	GIPS        float64
	ActiveCores int
	TSPPerCoreW float64
	// DTM records that the sandbox's emergency throttle overrode the
	// policy's decision this period.
	DTM bool
}

// Kind is the predicate family of an assertion.
type Kind string

const (
	// KindMax requires Signal ≤ Limit at every step.
	KindMax Kind = "max"
	// KindMin requires Signal ≥ Limit at every step.
	KindMin Kind = "min"
	// KindNonDecreasing requires Signal to never drop by more than Tol
	// between consecutive steps.
	KindNonDecreasing Kind = "non-decreasing"
	// KindLevelStep requires every placement's ladder level to move by
	// at most Limit levels between consecutive steps (DVFS transitions
	// walk the ladder; they do not teleport).
	KindLevelStep Kind = "level-step"
	// KindLevelRange requires every placement's level to lie in
	// [0, Limit].
	KindLevelRange Kind = "level-range"
	// KindPartition requires the per-placement power vector to sum to
	// the chip total within relative tolerance Tol: the power accounting
	// must conserve the partition.
	KindPartition Kind = "partition"
	// KindTSPBudget requires MaxCoreW ≤ (1+Slack)·TSPPerCoreW whenever
	// the peak temperature is at or above QualifyC. Below QualifyC the
	// chip has thermal headroom and may sprint above the steady-safe
	// budget (computational sprinting); at the trigger temperature with
	// the budget still exceeded, the policy is overcommitted.
	KindTSPBudget Kind = "tsp-budget"
)

// Signal names a scalar extracted from a trace step.
type Signal string

const (
	SignalPeakC    Signal = "peak_c"
	SignalTotalW   Signal = "total_w"
	SignalMaxCoreW Signal = "max_core_w"
	SignalGIPS     Signal = "gips"
	SignalTimeS    Signal = "time_s"
)

// Assertion is one declarative trace invariant.
type Assertion struct {
	// Name identifies the assertion in violations and tables; Pins
	// documents the paper property it encodes.
	Name string `json:"name"`
	Pins string `json:"pins,omitempty"`
	Kind Kind   `json:"kind"`
	// Signal is required by max/min/non-decreasing.
	Signal Signal `json:"signal,omitempty"`
	// Limit bounds max/min/level-step/level-range.
	Limit float64 `json:"limit,omitempty"`
	// Tol is the tolerance of non-decreasing (absolute) and partition
	// (relative).
	Tol float64 `json:"tol,omitempty"`
	// Slack and QualifyC parameterize tsp-budget.
	Slack    float64 `json:"slack,omitempty"`
	QualifyC float64 `json:"qualify_c,omitempty"`
}

// Violation reports an assertion failing at one step, with the trace
// context a postmortem needs.
type Violation struct {
	// Policy is filled in by the sandbox when checking a run.
	Policy    string  `json:"policy,omitempty"`
	Assertion string  `json:"assertion"`
	Pins      string  `json:"pins,omitempty"`
	Step      int     `json:"step"`
	TimeS     float64 `json:"time_s"`
	Detail    string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: step %d (t=%.3f s): %s", v.Assertion, v.Step, v.TimeS, v.Detail)
}

// Default bounds of the standard assertion set.
const (
	// TDTMSlackC is the overshoot allowance of never-exceed-tdtm: the
	// closed loop's 1 ms period oscillates within about 1 °C of the
	// threshold (the same 2 °C slack internal/verify's boost-energy
	// invariant grants Figure 11).
	TDTMSlackC = 2.0
	// DefaultTSPSlack is the sprint allowance of tsp-respected: once the
	// peak is past the TDTM band (TDTM + TDTMSlackC) the hottest core
	// may draw at most this fraction above the worst-case steady-safe
	// budget (one boost step of margin).
	DefaultTSPSlack = 0.25
)

// StandardAssertions is the sandbox's default invariant set for a
// platform with trigger temperature tdtmC and ladder levels 0..maxLevel:
// never exceed TDTM, respect the TSP budget at every step, keep ladder
// transitions legal, conserve the power partition, keep time monotone.
func StandardAssertions(tdtmC float64, maxLevel int) []Assertion {
	return []Assertion{
		{
			Name: "never-exceed-tdtm", Kind: KindMax, Signal: SignalPeakC,
			Limit: tdtmC + TDTMSlackC,
			Pins:  "the DTM trigger temperature bounds every transient (§2, T_DTM)",
		},
		{
			Name: "tsp-respected", Kind: KindTSPBudget,
			Slack: DefaultTSPSlack, QualifyC: tdtmC + TDTMSlackC,
			Pins: "per-core power within the thermal safe power budget once headroom is gone (§3.2, TSP)",
		},
		{
			Name: "ladder-step-legal", Kind: KindLevelStep, Limit: 1,
			Pins: "DVFS moves one 0.2 GHz ladder step per control period (§6)",
		},
		{
			Name: "ladder-range-legal", Kind: KindLevelRange, Limit: float64(maxLevel),
			Pins: "levels stay on the platform's v/f ladder (§5, Equation 2)",
		},
		{
			Name: "power-partition", Kind: KindPartition, Tol: 1e-9,
			Pins: "per-placement power sums to the chip total (Equation 1 accounting)",
		},
		{
			Name: "time-monotone", Kind: KindNonDecreasing, Signal: SignalTimeS,
			Pins: "control periods advance monotonically",
		},
	}
}

// signalOf extracts a Signal's value from a step.
func signalOf(s *Step, sig Signal) (float64, error) {
	switch sig {
	case SignalPeakC:
		return s.PeakC, nil
	case SignalTotalW:
		return s.TotalW, nil
	case SignalMaxCoreW:
		return s.MaxCoreW, nil
	case SignalGIPS:
		return s.GIPS, nil
	case SignalTimeS:
		return s.TimeS, nil
	default:
		return 0, fmt.Errorf("%w: unknown signal %q", ErrPolicy, sig)
	}
}

// stepContext formats the full step record for a violation detail.
func stepContext(s *Step) string {
	return fmt.Sprintf("peak %.3f °C, total %.2f W, max core %.4f W, %.1f GIPS, %d active, TSP %.4f W/core, levels %v, gated %v, dtm %v",
		s.PeakC, s.TotalW, s.MaxCoreW, s.GIPS, s.ActiveCores, s.TSPPerCoreW, s.Levels, s.Gated, s.DTM)
}

// Check evaluates every assertion over the trace and returns one
// Violation per failed assertion, naming the first violating step. A
// non-nil error means an assertion itself is malformed (unknown kind or
// signal), not that the trace failed.
func Check(steps []Step, asserts []Assertion) ([]Violation, error) {
	var out []Violation
	for _, a := range asserts {
		v, err := checkOne(steps, a)
		if err != nil {
			return nil, fmt.Errorf("assertion %q: %w", a.Name, err)
		}
		if v != nil {
			out = append(out, *v)
		}
	}
	return out, nil
}

// checkOne walks the trace under a single assertion and returns the
// first violation, or nil.
func checkOne(steps []Step, a Assertion) (*Violation, error) {
	fail := func(s *Step, format string, args ...any) *Violation {
		return &Violation{
			Assertion: a.Name,
			Pins:      a.Pins,
			Step:      s.Index,
			TimeS:     s.TimeS,
			Detail:    fmt.Sprintf(format, args...) + " — " + stepContext(s),
		}
	}
	switch a.Kind {
	case KindMax, KindMin:
		for i := range steps {
			s := &steps[i]
			v, err := signalOf(s, a.Signal)
			if err != nil {
				return nil, err
			}
			if a.Kind == KindMax && v > a.Limit {
				return fail(s, "%s = %.4f exceeds limit %.4f", a.Signal, v, a.Limit), nil
			}
			if a.Kind == KindMin && v < a.Limit {
				return fail(s, "%s = %.4f below limit %.4f", a.Signal, v, a.Limit), nil
			}
		}
	case KindNonDecreasing:
		for i := 1; i < len(steps); i++ {
			s := &steps[i]
			cur, err := signalOf(s, a.Signal)
			if err != nil {
				return nil, err
			}
			prev, err := signalOf(&steps[i-1], a.Signal)
			if err != nil {
				return nil, err
			}
			if cur < prev-a.Tol {
				return fail(s, "%s dropped %.6f -> %.6f", a.Signal, prev, cur), nil
			}
		}
	case KindLevelStep:
		limit := int(a.Limit)
		for i := 1; i < len(steps); i++ {
			s := &steps[i]
			prev := &steps[i-1]
			if len(s.Levels) != len(prev.Levels) {
				return fail(s, "placement count changed %d -> %d", len(prev.Levels), len(s.Levels)), nil
			}
			for j := range s.Levels {
				if d := s.Levels[j] - prev.Levels[j]; d > limit || d < -limit {
					return fail(s, "placement %d level jumped %d -> %d (|Δ| > %d)",
						j, prev.Levels[j], s.Levels[j], limit), nil
				}
			}
		}
	case KindLevelRange:
		limit := int(a.Limit)
		for i := range steps {
			s := &steps[i]
			for j, l := range s.Levels {
				if l < 0 || l > limit {
					return fail(s, "placement %d level %d outside [0, %d]", j, l, limit), nil
				}
			}
		}
	case KindPartition:
		for i := range steps {
			s := &steps[i]
			sum := 0.0
			for _, w := range s.PlacementW {
				sum += w
			}
			tol := a.Tol * math.Max(1, math.Abs(s.TotalW))
			if d := math.Abs(sum - s.TotalW); d > tol {
				return fail(s, "placement powers sum to %.6f W, total records %.6f W (|Δ| = %.3g > %.3g)",
					sum, s.TotalW, d, tol), nil
			}
		}
	case KindTSPBudget:
		for i := range steps {
			s := &steps[i]
			if s.TSPPerCoreW <= 0 || s.PeakC < a.QualifyC {
				continue
			}
			bound := (1 + a.Slack) * s.TSPPerCoreW
			if s.MaxCoreW > bound {
				return fail(s, "max core power %.4f W exceeds TSP budget %.4f W (+%.0f%% sprint slack) at peak %.2f °C",
					s.MaxCoreW, bound, 100*a.Slack, s.PeakC), nil
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown assertion kind %q", ErrPolicy, a.Kind)
	}
	return nil, nil
}
