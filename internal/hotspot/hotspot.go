// Package hotspot reads and writes HotSpot-style configuration files
// (`-param value` lines) for the subset of parameters the compact thermal
// model uses: die/interface/spreader/sink geometry and materials,
// convection resistance/capacitance and the ambient temperature. The
// paper's §2.1 lists exactly these parameters; this package lets a
// thermal.Config round-trip through the same file format HotSpot itself
// consumes, so existing HotSpot configuration files can drive this
// simulator and vice versa.
//
// Notes on conventions: HotSpot expresses the ambient in kelvin
// (`-ambient 318.15` is 45 °C) and spreader/sink sides in metres
// (`-s_spreader 0.03`). Die size is not part of the .config file (HotSpot
// takes it from the floorplan), so ReadConfig takes it as an argument.
package hotspot

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"darksim/internal/thermal"
)

// kelvinOffset converts between °C and K.
const kelvinOffset = 273.15

// ErrConfig is returned for malformed configuration input.
var ErrConfig = errors.New("hotspot: invalid configuration")

// WriteConfig emits cfg as HotSpot `-param value` lines. The configuration
// must have the standard four layers (die, tim, spreader, sink) produced
// by thermal.DefaultConfig.
func WriteConfig(w io.Writer, cfg thermal.Config) error {
	layers, err := namedLayers(cfg)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# HotSpot-compatible configuration (subset) generated by darksim")
	put := func(name string, v float64) {
		fmt.Fprintf(bw, "-%s\t%g\n", name, v)
	}
	put("t_chip", layers.die.Thickness)
	put("k_chip", layers.die.Material.Conductivity)
	put("p_chip", layers.die.Material.VolumetricHeat)
	put("t_interface", layers.tim.Thickness)
	put("k_interface", layers.tim.Material.Conductivity)
	put("p_interface", layers.tim.Material.VolumetricHeat)
	put("s_spreader", layers.spreader.W)
	put("t_spreader", layers.spreader.Thickness)
	put("k_spreader", layers.spreader.Material.Conductivity)
	put("p_spreader", layers.spreader.Material.VolumetricHeat)
	put("s_sink", layers.sink.W)
	put("t_sink", layers.sink.Thickness)
	put("k_sink", layers.sink.Material.Conductivity)
	put("p_sink", layers.sink.Material.VolumetricHeat)
	put("r_convec", cfg.ConvectionR)
	put("c_convec", cfg.ConvectionC)
	put("ambient", cfg.AmbientC+kelvinOffset)
	return bw.Flush()
}

type stdLayers struct {
	die, tim, spreader, sink thermal.Layer
}

func namedLayers(cfg thermal.Config) (stdLayers, error) {
	var out stdLayers
	found := map[string]bool{}
	for _, l := range cfg.Layers {
		switch l.Name {
		case "die":
			out.die = l
		case "tim":
			out.tim = l
		case "spreader":
			out.spreader = l
		case "sink":
			out.sink = l
		default:
			return out, fmt.Errorf("%w: unsupported layer %q", ErrConfig, l.Name)
		}
		found[l.Name] = true
	}
	for _, name := range []string{"die", "tim", "spreader", "sink"} {
		if !found[name] {
			return out, fmt.Errorf("%w: missing layer %q", ErrConfig, name)
		}
	}
	return out, nil
}

// ReadConfig parses a HotSpot-style configuration and instantiates a
// thermal.Config for a die of the given size discretized at dieNx×dieNy.
// Unknown parameters are ignored (HotSpot files carry many more knobs
// than the compact model needs). Missing parameters fall back to the
// package defaults (the paper's §2.1 values).
func ReadConfig(r io.Reader, dieW, dieH float64, dieNx, dieNy int) (thermal.Config, error) {
	params, err := ParseParams(r)
	if err != nil {
		return thermal.Config{}, err
	}
	cfg := thermal.DefaultConfig(dieW, dieH, dieNx, dieNy)
	layers, err := namedLayers(cfg)
	if err != nil {
		return thermal.Config{}, err
	}
	get := func(name string, dst *float64) {
		if v, ok := params[name]; ok {
			*dst = v
		}
	}
	get("t_chip", &layers.die.Thickness)
	get("k_chip", &layers.die.Material.Conductivity)
	get("p_chip", &layers.die.Material.VolumetricHeat)
	get("t_interface", &layers.tim.Thickness)
	get("k_interface", &layers.tim.Material.Conductivity)
	get("p_interface", &layers.tim.Material.VolumetricHeat)
	get("t_spreader", &layers.spreader.Thickness)
	get("k_spreader", &layers.spreader.Material.Conductivity)
	get("p_spreader", &layers.spreader.Material.VolumetricHeat)
	get("t_sink", &layers.sink.Thickness)
	get("k_sink", &layers.sink.Material.Conductivity)
	get("p_sink", &layers.sink.Material.VolumetricHeat)
	if v, ok := params["s_spreader"]; ok {
		layers.spreader.W, layers.spreader.H = v, v
	}
	if v, ok := params["s_sink"]; ok {
		layers.sink.W, layers.sink.H = v, v
	}
	// Spreader and sink must still cover the die (thermal.Config
	// invariant); grow them if the file specifies smaller ones.
	if layers.spreader.W < dieW {
		layers.spreader.W = dieW
	}
	if layers.spreader.H < dieH {
		layers.spreader.H = dieH
	}
	if layers.sink.W < layers.spreader.W {
		layers.sink.W = layers.spreader.W
	}
	if layers.sink.H < layers.spreader.H {
		layers.sink.H = layers.spreader.H
	}
	get("r_convec", &cfg.ConvectionR)
	get("c_convec", &cfg.ConvectionC)
	if v, ok := params["ambient"]; ok {
		cfg.AmbientC = v - kelvinOffset
	}
	cfg.Layers = []thermal.Layer{layers.die, layers.tim, layers.spreader, layers.sink}
	if err := cfg.Validate(); err != nil {
		return thermal.Config{}, err
	}
	return cfg, nil
}

// ParseParams reads `-name value` lines into a map. Comments (# …) and
// blank lines are skipped; repeated parameters keep the last value, like
// HotSpot's own parser.
func ParseParams(r io.Reader) (map[string]float64, error) {
	params := map[string]float64{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "-") {
			return nil, fmt.Errorf("%w: line %d: want \"-name value\", got %q", ErrConfig, line, text)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrConfig, line, err)
		}
		params[strings.TrimPrefix(fields[0], "-")] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hotspot: read: %w", err)
	}
	return params, nil
}
