// Package metrics provides the accounting types shared by the experiment
// harnesses: performance (GIPS), energy integration over transient runs,
// dark-silicon summaries, and small time-series utilities for the
// figure-style outputs.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// Summary captures one operating point of the chip — the quantities every
// figure of the paper reports some subset of.
type Summary struct {
	Label       string
	ActiveCores int
	TotalCores  int
	GIPS        float64
	PowerW      float64
	PeakTempC   float64
}

// DarkCores returns the number of unpowered cores.
func (s Summary) DarkCores() int { return s.TotalCores - s.ActiveCores }

// DarkFraction returns the dark-silicon fraction in [0, 1].
func (s Summary) DarkFraction() float64 {
	if s.TotalCores == 0 {
		return 0
	}
	return float64(s.DarkCores()) / float64(s.TotalCores)
}

// ActivePercent returns the active-core percentage, the y-axis of
// Figures 5–7 and 9.
func (s Summary) ActivePercent() float64 { return 100 * (1 - s.DarkFraction()) }

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("%s: %d/%d active (%.0f%% dark), %.1f GIPS, %.1f W, peak %.1f °C",
		s.Label, s.ActiveCores, s.TotalCores, 100*s.DarkFraction(), s.GIPS, s.PowerW, s.PeakTempC)
}

// EnergyMeter integrates power over time (rectangle rule, matching the
// fixed-step transient simulator).
type EnergyMeter struct {
	joules float64
}

// ErrMeter is returned for non-physical meter input.
var ErrMeter = errors.New("metrics: invalid meter input")

// Add accumulates powerW over dt seconds.
func (e *EnergyMeter) Add(dt, powerW float64) error {
	if dt < 0 || powerW < 0 || math.IsNaN(dt) || math.IsNaN(powerW) {
		return fmt.Errorf("%w: dt=%g power=%g", ErrMeter, dt, powerW)
	}
	e.joules += dt * powerW
	return nil
}

// TotalJ returns the accumulated energy in joules.
func (e *EnergyMeter) TotalJ() float64 { return e.joules }

// TotalKJ returns the accumulated energy in kilojoules (Figure 14's unit).
func (e *EnergyMeter) TotalKJ() float64 { return e.joules / 1e3 }

// Series is a sampled time series (or any x/y series for figure output).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one sample.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.X) }

// Downsample returns a series with at most n points, keeping every k-th
// sample (and always the last). It is used to print long transients
// compactly.
func (s *Series) Downsample(n int) Series {
	if n <= 0 || s.Len() <= n {
		return *s
	}
	step := (s.Len() + n - 1) / n
	out := Series{Name: s.Name}
	for i := 0; i < s.Len(); i += step {
		out.Append(s.X[i], s.Y[i])
	}
	if last := s.Len() - 1; out.X[len(out.X)-1] != s.X[last] {
		out.Append(s.X[last], s.Y[last])
	}
	return out
}
