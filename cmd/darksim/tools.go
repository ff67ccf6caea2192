package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"darksim/internal/core"
	"darksim/internal/experiments"
	"darksim/internal/floorplan"
	"darksim/internal/hotspot"
	"darksim/internal/report"
	"darksim/internal/tech"
	"darksim/internal/thermal"
)

// runTSP prints the Thermal Safe Power table of a platform: the
// worst-case per-core power budget as a function of the number of active
// cores (Pagani et al., the §5 concept of the paper). It is the table
// GET /v1/tsp serves, from the same cached platform.
func runTSP(ctx context.Context, e *env, args []string) error {
	node := e.flags.Int("node", 16, "technology node in nm (22, 16, 11, 8)")
	cores := e.flags.Int("cores", 100, "number of cores on the chip")
	tcrit := e.flags.Float64("tcrit", core.DefaultTDTM, "critical temperature in °C")
	max := e.flags.Int("max", 0, "largest active-core count to tabulate (default: all cores)")
	step := e.flags.Int("step", 1, "tabulation step")
	if err := e.parse(args); err != nil {
		return &exitError{exitUsage, err}
	}
	t, err := experiments.TSPTable(ctx, tech.Node(*node), *cores, *tcrit, *max, *step)
	if err != nil {
		return err
	}
	return writeTables(e.out, e.format, "tsp", []*report.Table{t}, t.Render)
}

// runFloorplan writes a HotSpot-style .flp floorplan: the paper's
// platform for a node and core count, or an explicit grid.
func runFloorplan(_ context.Context, e *env, args []string) error {
	node := e.flags.Int("node", 0, "technology node in nm (sets per-core area; 0 = use -area)")
	cores := e.flags.Int("cores", 100, "number of cores (used with -node)")
	cols := e.flags.Int("cols", 0, "explicit grid columns (used with -rows/-area)")
	rows := e.flags.Int("rows", 0, "explicit grid rows")
	area := e.flags.Float64("area", 0, "explicit per-core area in mm²")
	if err := e.parse(args); err != nil {
		return &exitError{exitUsage, err}
	}
	fp, err := buildFloorplan(*node, *cores, *cols, *rows, *area)
	if err != nil {
		return err
	}
	return fp.WriteFLP(e.out)
}

func buildFloorplan(node, cores, cols, rows int, area float64) (*floorplan.Floorplan, error) {
	if cols > 0 || rows > 0 {
		if area <= 0 {
			return nil, fmt.Errorf("explicit grids need -area")
		}
		return floorplan.NewGrid(cols, rows, area)
	}
	if node == 0 {
		return nil, fmt.Errorf("need either -node or -cols/-rows/-area")
	}
	spec, err := tech.SpecFor(tech.Node(node))
	if err != nil {
		return nil, err
	}
	return floorplan.NewGridForCount(cores, spec.CoreAreaMM2)
}

// runThermal is a HotSpot-style thermal simulation: it reads a floorplan
// (.flp), an optional configuration (.config) and a power trace
// (.ptrace), and prints per-block temperatures — the workflow HotSpot
// itself implements, backed by this repository's compact RC model. In
// steady-state mode the first trace row is solved; in transient mode
// every row advances the model by -dt seconds and the hottest block per
// step is reported, followed by the final per-block map.
func runThermal(_ context.Context, e *env, args []string) error {
	flpPath := e.flags.String("flp", "", "floorplan file (.flp), required")
	cfgPath := e.flags.String("config", "", "HotSpot-style configuration file (optional)")
	ptracePath := e.flags.String("ptrace", "", "power trace file (.ptrace), required")
	transient := e.flags.Bool("transient", false, "run the whole trace as a transient")
	dt := e.flags.Float64("dt", 1e-3, "transient step per trace row in seconds")
	if err := e.parse(args); err != nil {
		return &exitError{exitUsage, err}
	}
	if *flpPath == "" || *ptracePath == "" {
		e.flags.Usage()
		return &exitError{exitUsage, errors.New("thermal: -flp and -ptrace are required")}
	}
	fp, trace, model, err := loadHotSpot(*flpPath, *cfgPath, *ptracePath)
	if err != nil {
		return err
	}
	names := make([]string, fp.NumBlocks())
	for i, b := range fp.Blocks {
		names[i] = b.Name
	}
	order, err := trace.OrderFor(names)
	if err != nil {
		return err
	}
	rowToPower := func(row []float64) []float64 {
		power := make([]float64, fp.NumBlocks())
		for i, v := range row {
			power[order[i]] = v
		}
		return power
	}

	if !*transient {
		temps, err := model.SteadyState(rowToPower(trace.Steps[0]))
		if err != nil {
			return err
		}
		return printTemps(e.out, names, temps)
	}

	tr, err := model.NewTransient(*dt)
	if err != nil {
		return err
	}
	var temps []float64
	for step, row := range trace.Steps {
		temps, err = tr.Step(rowToPower(row))
		if err != nil {
			return err
		}
		at := 0
		for i, t := range temps {
			if t > temps[at] {
				at = i
			}
		}
		fmt.Fprintf(e.out, "t=%.6f\tpeak=%.3f\t%s\n", float64(step+1)**dt, temps[at], names[at])
	}
	fmt.Fprintln(e.out, "# final temperatures")
	return printTemps(e.out, names, temps)
}

// loadHotSpot reads the floorplan, the optional configuration and the
// power trace, and builds the thermal model they describe.
func loadHotSpot(flpPath, cfgPath, ptracePath string) (*floorplan.Floorplan, *hotspot.PowerTrace, *thermal.Model, error) {
	fp, err := parseFile(flpPath, floorplan.ReadFLP)
	if err != nil {
		return nil, nil, nil, err
	}
	nx, ny := fp.Cols, fp.Rows
	if nx == 0 {
		// Non-grid floorplans get a fixed die resolution.
		nx, ny = 16, 16
	}
	cfg := thermal.DefaultConfig(fp.DieW, fp.DieH, nx, ny)
	if cfgPath != "" {
		if cfg, err = parseFile(cfgPath, func(r io.Reader) (thermal.Config, error) {
			return hotspot.ReadConfig(r, fp.DieW, fp.DieH, nx, ny)
		}); err != nil {
			return nil, nil, nil, err
		}
	}
	model, err := thermal.NewModel(fp, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	trace, err := parseFile(ptracePath, hotspot.ReadPTrace)
	return fp, trace, model, err
}

// parseFile parses the file at path, naming it in parse errors.
func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func printTemps(w io.Writer, names []string, temps []float64) error {
	for i, n := range names {
		if _, err := fmt.Fprintf(w, "%s\t%.3f\n", n, temps[i]); err != nil {
			return err
		}
	}
	return nil
}
