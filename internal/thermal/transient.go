package thermal

import (
	"fmt"
	"math"

	"darksim/internal/linalg"
)

// Transient advances the RC network in time with the unconditionally
// stable implicit (backward) Euler scheme:
//
//	C·(T⁺ − T)/dt = −G·T⁺ + P + P_amb
//	(C/dt + G)·T⁺ = (C/dt)·T + P + P_amb
//
// The left-hand matrix depends only on dt, so one envelope factorization
// serves the whole run, and the model caches it per dt across runs. Each
// step is one exact pair of triangular sweeps, at every model size. This
// is what makes the paper's §6 boosting experiments (100 s at 1 ms
// control period, i.e. 10⁵ steps) tractable.
//
// Next to the exact step, AdvanceQuiet snaps a state that already sits
// on the steady state of a frozen power map onto that steady state
// exactly; it never advances any other state, so every trajectory off
// the steady state is made of exact steps only.
type Transient struct {
	m  *Model
	tf *transFactor
	t  linalg.Vector // current node temperatures

	// rhs is the node-power / right-hand-side buffer every step
	// assembles into; it swaps with t after the solve.
	rhs linalg.Vector

	// The frozen-power steady-state cache: tinf is T∞ for the power map
	// in tinfPow (valid while haveTinf), allocated on first use.
	tinf     linalg.Vector
	tinfPow  []float64
	haveTinf bool
}

// NewTransient creates a transient integrator with step size dt (seconds),
// initialized to the ambient-only steady state (a cold chip). Repeated
// calls with the same dt share one cached factorization.
func (m *Model) NewTransient(dt float64) (*Transient, error) {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return nil, fmt.Errorf("%w: transient step %g s", ErrConfig, dt)
	}
	tf, err := m.transientFactor(dt)
	if err != nil {
		return nil, err
	}
	return &Transient{m: m, tf: tf, t: m.ambNodes.Clone(), rhs: linalg.NewVector(len(m.cells))}, nil
}

// SetUniform resets every node to the given temperature.
func (tr *Transient) SetUniform(tempC float64) { tr.t.Fill(tempC) }

// SetSteadyState resets the state to the steady-state solution for the
// given per-block power map.
func (tr *Transient) SetSteadyState(blockPower []float64) error {
	nodeT, err := tr.m.SteadyStateNodes(blockPower)
	if err != nil {
		return err
	}
	tr.t = nodeT
	return nil
}

// Step advances the model by one dt under the given per-block power map
// and returns the resulting per-block temperatures.
func (tr *Transient) Step(blockPower []float64) ([]float64, error) {
	if err := tr.m.nodePowerInto(tr.rhs, blockPower); err != nil {
		return nil, err
	}
	tr.stepNodes()
	return tr.m.blockTemps(tr.t), nil
}

// completeRHS turns tr.rhs, holding the expanded node power, into the
// implicit-Euler right-hand side (C/dt)·T + P + P_amb.
func (tr *Transient) completeRHS() {
	p, capDt, t, amb := tr.rhs, tr.tf.capDt, tr.t, tr.m.ambRHS
	for i := range p {
		p[i] += capDt[i]*t[i] + amb[i]
	}
}

// stepNodes performs one implicit-Euler step assuming tr.rhs holds the
// expanded node power; it completes the right-hand side and solves.
func (tr *Transient) stepNodes() {
	tr.completeRHS()
	tr.tf.fac.solveInPlace(tr.rhs)
	tr.t, tr.rhs = tr.rhs, tr.t
}

// MacroSupported returns true. It exists only because perfbench's
// layer probes (perfbench/probes.go) call it; it goes with MacroStep and
// SolverKind once those probes move onto internal/bench.
func (tr *Transient) MacroSupported() bool { return true }

// MacroStep advances k exact implicit-Euler steps under one frozen power
// map and returns the resulting per-block temperatures, bit for bit the
// result of k Step calls. It exists only because perfbench's layer
// probes (perfbench/probes.go) call it; it goes with MacroSupported and
// SolverKind once those probes move onto internal/bench.
func (tr *Transient) MacroStep(blockPower []float64, k int) ([]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: macro step count %d", ErrConfig, k)
	}
	for s := 0; s < k; s++ {
		if err := tr.m.nodePowerInto(tr.rhs, blockPower); err != nil {
			return nil, err
		}
		tr.stepNodes()
	}
	return tr.m.blockTemps(tr.t), nil
}

// AdvanceQuiet is the quiet-interval rule for a caller that holds the
// power map constant. When the state is within snapTolC (°C, per node)
// of the frozen-power steady state it snaps there exactly and returns
// the per-block temperatures with ok=true: the caller may hold that
// state for as many periods as the map stays frozen. Otherwise — off the
// steady state, or, when maxSafeC > 0, with a frozen steady state that
// would peak above maxSafeC — it refuses (ok=false) without touching the
// state, and the caller steps exactly, keeping its thermal-emergency
// checks intact.
func (tr *Transient) AdvanceQuiet(blockPower []float64, snapTolC, maxSafeC float64) (temps []float64, ok bool, err error) {
	tinf, err := tr.frozenSteadyNodes(blockPower)
	if err != nil {
		return nil, false, err
	}
	if maxSafeC > 0 {
		peak, _ := linalg.Vector(tr.m.blockTemps(tinf)).Max()
		if peak > maxSafeC {
			return nil, false, nil
		}
	}
	if nodeDistInf(tr.t, tinf) > snapTolC {
		return nil, false, nil
	}
	copy(tr.t, tinf)
	return tr.m.blockTemps(tr.t), true, nil
}

// frozenSteadyNodes returns the steady-state node temperatures for a
// frozen power map, cached while the map stays bitwise identical — the
// steady state of a settled control loop is recomputed exactly once.
func (tr *Transient) frozenSteadyNodes(blockPower []float64) (linalg.Vector, error) {
	if tr.haveTinf && floatsEqual(tr.tinfPow, blockPower) {
		return tr.tinf, nil
	}
	if tr.tinf == nil {
		tr.tinf = linalg.NewVector(len(tr.t))
	}
	tr.haveTinf = false
	if err := tr.m.nodePowerInto(tr.tinf, blockPower); err != nil {
		return nil, err
	}
	tr.tinf.AddScaled(1, tr.m.ambRHS)
	tr.m.steady.solveInPlace(tr.tinf)
	tr.tinfPow = append(tr.tinfPow[:0], blockPower...)
	tr.haveTinf = true
	return tr.tinf, nil
}

// nodeDistInf returns ‖a−b‖∞.
func nodeDistInf(a, b linalg.Vector) float64 {
	d := 0.0
	for i, v := range a {
		if dv := v - b[i]; dv > d {
			d = dv
		} else if -dv > d {
			d = -dv
		}
	}
	return d
}

// floatsEqual reports bitwise equality of two float slices.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// BlockTemps returns the current per-block temperatures.
func (tr *Transient) BlockTemps() []float64 { return tr.m.blockTemps(tr.t) }

// PeakBlockTemp returns the hottest block temperature and its index.
func (tr *Transient) PeakBlockTemp() (float64, int) {
	return linalg.Vector(tr.BlockTemps()).Max()
}
