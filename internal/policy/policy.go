// Package policy is the pluggable runtime-management sandbox of ROADMAP
// item 4: it promotes the paper's management mechanisms — TDP-guided
// mapping (§3.1/§4), DsRem's joint core-count/v/f heuristic, dark-silicon
// patterning and §6's closed-loop boosting — to one Policy interface,
// steps them head-to-head against the real transient thermal model on
// declarative scenario workloads, checks every run's trace with a
// declarative assertion engine (never exceed TDTM, TSP respected,
// frequency-ladder transitions legal, power partition conserved — the
// assertion-based DVS exploration methodology of Yu et al.), and tunes
// policy parameters per app mix with a deterministic hill climber.
//
// A DarkGates-style power-gating variant rounds out the families: per
// placement closed loops that power-gate an instance whose island stays
// at the thermal limit even at the lowest v/f level, re-arming it once
// the island has cooled.
package policy

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"darksim/internal/core"
	"darksim/internal/mapping"
	"darksim/internal/scenario"
	"darksim/internal/sim"
	"darksim/internal/tsp"
	"darksim/internal/vf"
)

// ErrPolicy is wrapped by policy construction and preparation failures.
var ErrPolicy = errors.New("policy: invalid")

// Env is the environment a policy runs against: one compiled scenario —
// its platform (floorplan, thermal model, ladders, TDTM) and workload —
// plus a TSP calculator at the platform's TDTM for per-step budget
// accounting.
type Env struct {
	Scenario *scenario.Scenario
	Platform *core.Platform
	TSP      *tsp.Calculator
}

// NewEnv builds the sandbox environment for a compiled scenario.
func NewEnv(sc *scenario.Scenario) (*Env, error) {
	if sc == nil || sc.Platform == nil {
		return nil, fmt.Errorf("%w: nil scenario", ErrPolicy)
	}
	calc, err := tsp.New(sc.Platform.Thermal, sc.Platform.TDTM)
	if err != nil {
		return nil, err
	}
	return &Env{Scenario: sc, Platform: sc.Platform, TSP: calc}, nil
}

// Observation is what a policy sees at the top of each control period,
// Decision its control output for the coming period (one ladder level
// per placement plus an optional gating mask), and Controller a prepared
// policy's per-period decision loop. They are the stepping engine's
// own types: the sandbox races policies on sim.RunLanes.
type (
	Observation = sim.Observation
	Decision    = sim.Decision
	Controller  = sim.PlacementController
)

// Prepared is a policy bound to an environment: the static plan it
// drives, the ladder its levels index into, and a fresh controller.
type Prepared struct {
	Plan   *mapping.Plan
	Ladder *vf.Ladder
	Ctrl   Controller
	// StartSteady starts the transient at the steady state of the
	// controller's initial decision rather than a cold chip.
	StartSteady bool
}

// Policy is one runtime-management policy: a mapping decision (which
// cores run what) plus a DVFS/boost/gating control loop, stepped against
// the transient thermal model by the sandbox.
type Policy interface {
	// Name is the registry identifier ("boost", "dsrem", ...).
	Name() string
	// Info is a one-line description for listings and tables.
	Info() string
	// Prepare binds the policy to an environment. Each call returns an
	// independent Prepared with fresh controller state.
	Prepare(ctx context.Context, env *Env) (*Prepared, error)
}

// Param describes one tunable knob: its current value and the box/step
// the tuner may move it in.
type Param struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Step  float64 `json:"step"`
}

// Tunable is a policy exposing parameters the hill-climbing tuner may
// search over.
type Tunable interface {
	Policy
	// Params returns the policy's knobs at their current values.
	Params() []Param
	// WithParams returns a copy of the policy with the named parameters
	// replaced; unknown names are errors, omitted ones keep defaults.
	WithParams(vals map[string]float64) (Policy, error)
}

// Registry returns one default-configured instance of every policy, in
// stable order. The safe policies come first; boost-unsafe — the
// negative control with its temperature check disabled — is last.
func Registry() []Policy {
	return []Policy{
		NewConstant(),
		NewBoost(),
		NewTDPMap(),
		NewPatterned(),
		NewDsRem(),
		NewDarkGates(),
		NewUnsafeBoost(),
	}
}

// Names returns the registered policy names in registry order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, p := range reg {
		names[i] = p.Name()
	}
	return names
}

// ByName returns a policy by registry name, with the given parameter
// overrides applied (nil/empty leaves defaults).
func ByName(name string, params map[string]float64) (Policy, error) {
	for _, p := range Registry() {
		if p.Name() != name {
			continue
		}
		if len(params) == 0 {
			return p, nil
		}
		t, ok := p.(Tunable)
		if !ok {
			keys := make([]string, 0, len(params))
			for k := range params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("%w: policy %q has no tunable parameters (got %v)", ErrPolicy, name, keys)
		}
		return t.WithParams(params)
	}
	return nil, fmt.Errorf("%w: unknown policy %q (known: %v)", ErrPolicy, name, Names())
}
