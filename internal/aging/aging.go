// Package aging estimates temperature-driven wear-out, the reliability
// angle of dark silicon the paper points to in §1 ("recent studies also
// leveraged dark silicon to improve the thermal profiles and reliability
// of manycore systems", citing Hayat and ASER). Two standard compact
// models are provided:
//
//   - an Arrhenius acceleration factor for temperature-activated
//     mechanisms (electromigration, TDDB):
//     AF(T) = exp(Ea/k · (1/Tref − 1/T)), T in kelvin;
//   - a per-core wear integrator that accumulates acceleration over a
//     transient temperature trace and reports per-core ageing and the
//     chip-level imbalance that dark-silicon rotation is designed to fix.
package aging

import (
	"errors"
	"fmt"
	"math"
)

// Boltzmann constant in eV/K.
const BoltzmannEV = 8.617333262e-5

// kelvinOffset converts °C to K.
const kelvinOffset = 273.15

// Model is an Arrhenius acceleration model.
type Model struct {
	// ActivationEV is the activation energy Ea in eV. Electromigration
	// is commonly modelled with Ea ≈ 0.7–0.9 eV.
	ActivationEV float64
	// RefC is the reference temperature (°C) at which the acceleration
	// factor is 1.
	RefC float64
}

// DefaultModel returns an electromigration-flavoured model (Ea = 0.8 eV)
// referenced to the 80 °C DTM threshold.
func DefaultModel() Model {
	return Model{ActivationEV: 0.8, RefC: 80}
}

// ErrModel is returned for non-physical model parameters or inputs.
var ErrModel = errors.New("aging: invalid")

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.ActivationEV <= 0 {
		return fmt.Errorf("%w: activation energy %g eV", ErrModel, m.ActivationEV)
	}
	if m.RefC <= -kelvinOffset {
		return fmt.Errorf("%w: reference temperature %g °C", ErrModel, m.RefC)
	}
	return nil
}

// Acceleration returns the Arrhenius acceleration factor at tempC:
// >1 above the reference temperature, <1 below, exactly 1 at it.
func (m Model) Acceleration(tempC float64) float64 {
	tRef := m.RefC + kelvinOffset
	t := tempC + kelvinOffset
	if t <= 0 {
		return 0
	}
	return math.Exp(m.ActivationEV / BoltzmannEV * (1/tRef - 1/t))
}

// Integrator accumulates per-core wear over a transient run.
type Integrator struct {
	model Model
	wear  []float64 // accelerated seconds per core
	total float64   // wall-clock seconds integrated
}

// NewIntegrator creates an integrator for n cores.
func NewIntegrator(model Model, n int) (*Integrator, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d cores", ErrModel, n)
	}
	return &Integrator{model: model, wear: make([]float64, n)}, nil
}

// Add integrates dt seconds at the given per-core temperatures.
func (in *Integrator) Add(dt float64, tempsC []float64) error {
	if dt < 0 {
		return fmt.Errorf("%w: dt %g", ErrModel, dt)
	}
	if len(tempsC) != len(in.wear) {
		return fmt.Errorf("%w: %d temperatures for %d cores", ErrModel, len(tempsC), len(in.wear))
	}
	for i, t := range tempsC {
		in.wear[i] += dt * in.model.Acceleration(t)
	}
	in.total += dt
	return nil
}

// MaxWear returns the most-aged core's accelerated seconds and index.
func (in *Integrator) MaxWear() (float64, int) {
	best, at := math.Inf(-1), -1
	for i, w := range in.wear {
		if w > best {
			best, at = w, i
		}
	}
	return best, at
}

// Imbalance returns max/mean wear — 1.0 means perfectly level ageing;
// large values mean a few cores burn out first. Dark-silicon rotation
// (Hayat-style "aging deceleration and balancing") reduces this.
func (in *Integrator) Imbalance() float64 {
	if len(in.wear) == 0 || in.total == 0 {
		return 0
	}
	var sum, max float64
	for _, w := range in.wear {
		sum += w
		if w > max {
			max = w
		}
	}
	mean := sum / float64(len(in.wear))
	if mean == 0 {
		return 0
	}
	return max / mean
}
