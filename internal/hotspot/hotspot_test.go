package hotspot

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"darksim/internal/floorplan"
	"darksim/internal/thermal"
)

func testGrid(t *testing.T) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := thermal.DefaultConfig(0.0226, 0.0226, 10, 10)
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(&buf, 0.0226, 0.0226, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.AmbientC-cfg.AmbientC) > 1e-9 {
		t.Errorf("ambient = %v, want %v", got.AmbientC, cfg.AmbientC)
	}
	if got.ConvectionR != cfg.ConvectionR || got.ConvectionC != cfg.ConvectionC {
		t.Errorf("convection drifted")
	}
	for i := range cfg.Layers {
		a, b := cfg.Layers[i], got.Layers[i]
		if a.Name != b.Name || math.Abs(a.Thickness-b.Thickness) > 1e-12 {
			t.Errorf("layer %d geometry drifted: %+v vs %+v", i, a, b)
		}
		if a.Material != b.Material {
			t.Errorf("layer %d material drifted", i)
		}
	}
}

func TestWriteConfigEmitsPaperValues(t *testing.T) {
	cfg := thermal.DefaultConfig(0.02, 0.02, 4, 4)
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// §2.1 values, in HotSpot units.
	for _, want := range []string{
		"-t_chip\t0.00015",
		"-k_chip\t100",
		"-t_interface\t2e-05",
		"-k_interface\t4",
		"-s_spreader\t0.03",
		"-t_spreader\t0.001",
		"-s_sink\t0.06",
		"-t_sink\t0.0069",
		"-r_convec\t0.1",
		"-c_convec\t140.4",
		"-ambient\t315.15", // 42 °C calibrated ambient
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReadConfigOverridesAndDefaults(t *testing.T) {
	in := `
# a HotSpot file with extra knobs we ignore
-t_chip      0.0003
-ambient     318.15
-sampling_intvl 0.01
-grid_rows   64
`
	cfg, err := ReadConfig(strings.NewReader(in), 0.02, 0.02, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Layers[0].Thickness != 0.0003 {
		t.Errorf("die thickness override lost: %v", cfg.Layers[0].Thickness)
	}
	if math.Abs(cfg.AmbientC-45) > 1e-9 {
		t.Errorf("ambient = %v °C, want 45", cfg.AmbientC)
	}
	// Untouched parameters keep the paper defaults.
	if cfg.ConvectionR != thermal.ConvectionR {
		t.Errorf("convection default lost")
	}
	if cfg.Layers[1].Material != thermal.Interface {
		t.Errorf("TIM material default lost")
	}
}

func TestReadConfigGrowsUndersizedStack(t *testing.T) {
	// Spreader smaller than the die must be grown to keep the stack valid.
	in := "-s_spreader 0.01\n-s_sink 0.012\n"
	cfg, err := ReadConfig(strings.NewReader(in), 0.03, 0.03, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Layers[2].W < 0.03 || cfg.Layers[3].W < cfg.Layers[2].W {
		t.Errorf("stack not grown: spreader %v sink %v", cfg.Layers[2].W, cfg.Layers[3].W)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("grown config invalid: %v", err)
	}
}

func TestParseParamsErrors(t *testing.T) {
	if _, err := ParseParams(strings.NewReader("bogus line here\n")); err == nil {
		t.Errorf("malformed line should error")
	}
	if _, err := ParseParams(strings.NewReader("-ambient notanumber\n")); err == nil {
		t.Errorf("bad float should error")
	}
	if _, err := ParseParams(strings.NewReader("ambient 318\n")); err == nil {
		t.Errorf("missing dash should error")
	}
	// Last value wins for duplicates.
	p, err := ParseParams(strings.NewReader("-x 1\n-x 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p["x"] != 2 {
		t.Errorf("duplicate handling wrong: %v", p["x"])
	}
}

func TestWriteConfigRejectsNonStandardStack(t *testing.T) {
	cfg := thermal.DefaultConfig(0.02, 0.02, 4, 4)
	cfg.Layers[1].Name = "glue"
	if err := WriteConfig(&bytes.Buffer{}, cfg); err == nil {
		t.Errorf("unknown layer should error")
	}
	cfg2 := thermal.DefaultConfig(0.02, 0.02, 4, 4)
	cfg2.Layers = cfg2.Layers[:3]
	if err := WriteConfig(&bytes.Buffer{}, cfg2); err == nil {
		t.Errorf("missing layer should error")
	}
}

func TestRoundTripThermalModelAgreement(t *testing.T) {
	// A model built from a round-tripped config produces the same
	// steady-state temperatures as one built from the original.
	origCfg := thermal.DefaultConfig(0.0226, 0.0226, 10, 10)
	var buf bytes.Buffer
	if err := WriteConfig(&buf, origCfg); err != nil {
		t.Fatal(err)
	}
	rtCfg, err := ReadConfig(&buf, 0.0226, 0.0226, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	fp := testGrid(t)
	m1, err := thermal.NewModel(fp, origCfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := thermal.NewModel(fp, rtCfg)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, 100)
	for i := range power {
		power[i] = 2
	}
	t1, err := m1.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m2.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		if math.Abs(t1[i]-t2[i]) > 1e-6 {
			t.Fatalf("temps diverge at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}
