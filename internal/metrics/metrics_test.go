package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSummaryAccounting(t *testing.T) {
	s := Summary{Label: "x", ActiveCores: 60, TotalCores: 100, GIPS: 123, PowerW: 185, PeakTempC: 79}
	if s.DarkCores() != 40 {
		t.Errorf("dark = %d", s.DarkCores())
	}
	if math.Abs(s.DarkFraction()-0.4) > 1e-12 {
		t.Errorf("dark fraction = %v", s.DarkFraction())
	}
	if math.Abs(s.ActivePercent()-60) > 1e-12 {
		t.Errorf("active %% = %v", s.ActivePercent())
	}
	if !strings.Contains(s.String(), "40% dark") {
		t.Errorf("String = %q", s.String())
	}
	var empty Summary
	if empty.DarkFraction() != 0 {
		t.Errorf("empty summary dark fraction = %v", empty.DarkFraction())
	}
}

func TestEnergyMeter(t *testing.T) {
	var e EnergyMeter
	if err := e.Add(1.0, 100); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(0.5, 200); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.TotalJ()-200) > 1e-12 {
		t.Errorf("TotalJ = %v", e.TotalJ())
	}
	if math.Abs(e.TotalKJ()-0.2) > 1e-12 {
		t.Errorf("TotalKJ = %v", e.TotalKJ())
	}
}

func TestEnergyMeterErrors(t *testing.T) {
	var e EnergyMeter
	if err := e.Add(-1, 5); err == nil {
		t.Errorf("negative dt should error")
	}
	if err := e.Add(1, -5); err == nil {
		t.Errorf("negative power should error")
	}
	if err := e.Add(math.NaN(), 5); err == nil {
		t.Errorf("NaN should error")
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 1000; i++ {
		s.Append(float64(i), float64(i))
	}
	d := s.Downsample(100)
	if d.Len() > 101 {
		t.Errorf("downsampled len = %d", d.Len())
	}
	// Last point preserved.
	if d.X[len(d.X)-1] != 999 {
		t.Errorf("last x = %v", d.X[len(d.X)-1])
	}
	// No-op cases.
	small := Series{X: []float64{1, 2}, Y: []float64{3, 4}}
	if got := small.Downsample(10); got.Len() != 2 {
		t.Errorf("small downsample changed length")
	}
	if got := small.Downsample(0); got.Len() != 2 {
		t.Errorf("n=0 should be a no-op")
	}
}
