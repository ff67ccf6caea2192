// Package bench is the perf-trajectory harness behind `darksim bench`:
// it runs the repository's headline benchmarks — every paper figure plus
// the thermal-solver, influence, TSP and transient micro-benchmarks — through
// testing.Benchmark and emits one machine-readable JSON report
// (BENCH_PR6.json in CI) so successive PRs can be compared on ns/op,
// allocs/op and solver iterations.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"darksim/internal/experiments"
	"darksim/internal/floorplan"
	"darksim/internal/runner"
	"darksim/internal/thermal"
	"darksim/internal/tsp"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Solver reports the thermal linear-solver work of the final
	// iteration's model, when the benchmark exercises one.
	Solver *thermal.SolverStats `json:"solver,omitempty"`
}

// Report is the full harness output.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU records the machine's logical CPU count alongside
	// GOMAXPROCS: a report taken with GOMAXPROCS=1 on a 16-way box reads
	// very differently from one taken on a single-core container, and
	// the parallel-figures wall-clock entry only makes sense against it.
	NumCPU  int      `json:"numcpu"`
	Results []Result `json:"results"`
	// Speedups maps a benchmark family to the ratio of two of its
	// entries measured in this same run (e.g. TSPWorstCaseSparse over
	// TSPWorstCaseWarm). The Dense/Sparse entry names predate the single
	// envelope solver and now run the same path, so their ratios read
	// about 1.
	Speedups map[string]float64 `json:"speedups"`
}

// Options configures a harness run.
type Options struct {
	// Figures enables the per-figure experiment benchmarks (slower).
	Figures bool
	// Out, when non-nil, receives one progress line per benchmark.
	Out io.Writer
}

// transientBenchDuration shortens the fig11–fig13 transients for
// benchmarking; the control loop is exercised identically, just over a
// shorter simulated horizon.
var transientBenchDuration = map[string]float64{"fig11": 2, "fig12": 0.5, "fig13": 0.25}

// solverCoreCounts are the platform sizes the thermal-solve
// micro-benchmarks sweep (side² cores); 1024 cores is the headline.
var solverCoreCounts = []int{10, 32}

// tspCoreSide sizes the TSP worst-case benchmark platform.
const tspCoreSide = 32

// influenceCoreSide sizes the influence-matrix fan-out benchmarks
// (side² = 1024 cores, the ROADMAP target for interactive TSP service).
const influenceCoreSide = 32

// transientSmallSide and transientLargeSide size the transient stepping
// micro-benchmarks: 100 cores sits below the macro-kernel node gate (so
// TransientMacro runs there), 1024 cores is the realistic large platform
// (above the gate — exact steps only).
const (
	transientSmallSide = 10
	transientLargeSide = 32
)

// macroBenchSteps is the quiet-interval length TransientMacro collapses
// per op; the matching exact-path cost is macroBenchSteps single steps,
// which is how computeSpeedups derives the macro speedup.
const macroBenchSteps = 1000

// spec is one named benchmark; solver optionally snapshots the stats of
// the model the final iteration used.
type spec struct {
	name   string
	run    func(b *testing.B)
	solver func() *thermal.SolverStats
}

// Run executes the harness and returns the report.
func Run(ctx context.Context, opt Options) (*Report, error) {
	specs, err := buildSpecs(ctx, opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Speedups:   make(map[string]float64),
	}
	for _, s := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		br := testing.Benchmark(s.run)
		if br.N == 0 {
			return nil, fmt.Errorf("bench: %s did not run (failed benchmark)", s.name)
		}
		r := Result{
			Name:        s.name,
			Iterations:  br.N,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if s.solver != nil {
			r.Solver = s.solver()
		}
		rep.Results = append(rep.Results, r)
		if opt.Out != nil {
			fmt.Fprintf(opt.Out, "%-40s %12.0f ns/op %8d allocs/op\n", s.name, r.NsPerOp, r.AllocsPerOp)
		}
	}
	rep.computeSpeedups()
	return rep, nil
}

// computeSpeedups derives the ratios between entries of one benchmark
// family that this report measured (see Report.Speedups).
func (rep *Report) computeSpeedups() {
	ns := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		ns[r.Name] = r.NsPerOp
	}
	for _, side := range solverCoreCounts {
		cores := side * side
		d, okd := ns[fmt.Sprintf("ThermalSolveDense/cores=%d", cores)]
		s, oks := ns[fmt.Sprintf("ThermalSolveSparse/cores=%d", cores)]
		if okd && oks && s > 0 {
			rep.Speedups[fmt.Sprintf("thermal_solve/cores=%d", cores)] = d / s
		}
	}
	cores := tspCoreSide * tspCoreSide
	d, okd := ns[fmt.Sprintf("TSPWorstCaseDense/cores=%d", cores)]
	s, oks := ns[fmt.Sprintf("TSPWorstCaseSparse/cores=%d", cores)]
	if okd && oks && s > 0 {
		rep.Speedups[fmt.Sprintf("tsp_worstcase/cores=%d", cores)] = d / s
	}
	icores := influenceCoreSide * influenceCoreSide
	col, okc := ns[fmt.Sprintf("InfluenceColumn/cores=%d", icores)]
	blk, okb := ns[fmt.Sprintf("InfluenceBlock/cores=%d", icores)]
	if okc && okb && blk > 0 {
		rep.Speedups[fmt.Sprintf("influence_block/cores=%d", icores)] = col / blk
	}
	wrm, okw := ns[fmt.Sprintf("InfluenceWarm/cores=%d", icores)]
	if okb && okw && wrm > 0 {
		rep.Speedups[fmt.Sprintf("influence_warm/cores=%d", icores)] = blk / wrm
	}
	tw, okt := ns[fmt.Sprintf("TSPWorstCaseWarm/cores=%d", cores)]
	if oks && okt && tw > 0 {
		rep.Speedups[fmt.Sprintf("tsp_warm/cores=%d", cores)] = s / tw
	}
	// Macro vs exact stepping: one TransientMacro op advances
	// macroBenchSteps periods, so the fair exact-path cost is step × k.
	mcores := transientSmallSide * transientSmallSide
	for _, p := range []struct{ path, key string }{{"Dense", "dense"}, {"Sparse", "sparse"}} {
		st, okst := ns[fmt.Sprintf("TransientStep%s/cores=%d", p.path, mcores)]
		mc, okmc := ns[fmt.Sprintf("TransientMacro%s/cores=%d", p.path, mcores)]
		if okst && okmc && mc > 0 {
			rep.Speedups[fmt.Sprintf("transient_macro_%s/cores=%d", p.key, mcores)] = st * macroBenchSteps / mc
		}
	}
}

// WriteJSON marshals the report with stable indentation.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func buildSpecs(ctx context.Context, opt Options) ([]spec, error) {
	var specs []spec
	if opt.Figures {
		for _, e := range experiments.Registry() {
			e := e
			specs = append(specs, spec{
				name: "figure/" + e.ID,
				run: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := experiments.RunWithDuration(ctx, e, transientBenchDuration[e.ID]); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
		}
	}
	for _, side := range solverCoreCounts {
		specs = append(specs, thermalSolveSpec(side, thermal.SolverDense), thermalSolveSpec(side, thermal.SolverSparse))
	}
	specs = append(specs, tspSpec(tspCoreSide, thermal.SolverDense), tspSpec(tspCoreSide, thermal.SolverSparse))
	specs = append(specs,
		influenceSpec(influenceCoreSide, 1),
		influenceSpec(influenceCoreSide, 0),
		influenceWarmSpec(influenceCoreSide),
		tspWarmSpec(tspCoreSide),
	)
	specs = append(specs,
		transientStepSpec(transientSmallSide, thermal.SolverDense),
		transientStepSpec(transientSmallSide, thermal.SolverSparse),
		transientStepSpec(transientLargeSide, thermal.SolverDense),
		transientStepSpec(transientLargeSide, thermal.SolverSparse),
		transientMacroSpec(transientSmallSide, thermal.SolverDense),
		transientMacroSpec(transientSmallSide, thermal.SolverSparse),
	)
	if opt.Figures {
		specs = append(specs, parallelFiguresSpec(ctx))
	}
	return specs, nil
}

// transientModel builds the side×side-core platform the transient
// stepping benchmarks share, with the given compatibility solver kind
// (it selects nothing), plus a uniform 2 W power map.
func transientModel(b *testing.B, side int, k thermal.SolverKind) (*thermal.Transient, []float64) {
	b.Helper()
	fp, err := floorplan.NewGrid(side, side, 5.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := thermal.DefaultConfig(fp.DieW, fp.DieH, side, side)
	cfg.Solver = k
	m, err := thermal.NewModel(fp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := m.NewTransient(1e-3)
	if err != nil {
		b.Fatal(err)
	}
	tr.SetUniform(45)
	p := make([]float64, side*side)
	for i := range p {
		p[i] = 2
	}
	return tr, p
}

// transientStepSpec measures one exact implicit-Euler transient step —
// the unit of work every control period pays on the slow path. Model
// construction and the factorization (warmed by one untimed step) run
// off the clock.
func transientStepSpec(side int, k thermal.SolverKind) spec {
	name := fmt.Sprintf("TransientStep%s/cores=%d", pathName(k), side*side)
	return spec{
		name: name,
		run: func(b *testing.B) {
			tr, p := transientModel(b, side, k)
			if _, err := tr.Step(p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(p); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// transientMacroSpec measures collapsing a quiet macroBenchSteps-step
// interval through the affine-powers ladder: O(log k) fused matrix
// applies instead of k triangular solves. The kernel build (dense
// inverse + ladder rungs) is warmed off the clock, matching how the
// figure sweeps amortize it across a whole run.
func transientMacroSpec(side int, k thermal.SolverKind) spec {
	name := fmt.Sprintf("TransientMacro%s/cores=%d", pathName(k), side*side)
	return spec{
		name: name,
		run: func(b *testing.B) {
			tr, p := transientModel(b, side, k)
			if !tr.MacroSupported() {
				b.Fatalf("%s: macro path unsupported at %d cores", name, side*side)
			}
			if _, err := tr.MacroStep(p, macroBenchSteps); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.SetUniform(45)
				if _, err := tr.MacroStep(p, macroBenchSteps); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// parallelFiguresSpec measures the wall clock of the three transient
// figures running concurrently through the runner pool at NumCPU
// workers — the configuration `darksim all` and the daemon actually
// serve — so the report reflects parallel throughput next to the
// single-figure latencies (on a GOMAXPROCS=1 box the two coincide).
func parallelFiguresSpec(ctx context.Context) spec {
	return spec{
		name: "FiguresParallel/figs=3",
		run: func(b *testing.B) {
			var figs []experiments.Experiment
			for _, e := range experiments.Registry() {
				if _, ok := transientBenchDuration[e.ID]; ok {
					figs = append(figs, e)
				}
			}
			if len(figs) != 3 {
				b.Fatalf("expected 3 transient figures, found %d", len(figs))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := runner.Map(ctx, figs, runner.Options{Workers: runtime.NumCPU()},
					func(ctx context.Context, _ int, e experiments.Experiment) (struct{}, error) {
						_, err := experiments.RunWithDuration(ctx, e, transientBenchDuration[e.ID])
						return struct{}{}, err
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// influenceModel builds the side×side-core model the influence
// benchmarks share as a template (each iteration constructs its own);
// the panel is the ignored InfluencePanel compatibility field.
func influenceModel(b *testing.B, side, panel int) *thermal.Model {
	b.Helper()
	fp, err := floorplan.NewGrid(side, side, 5.1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := thermal.DefaultConfig(fp.DieW, fp.DieH, side, side)
	cfg.Solver = thermal.SolverSparse
	cfg.InfluencePanel = panel
	m, err := thermal.NewModel(fp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// influenceSpec measures a cold influence-matrix build. The Column
// (panel 1) and Block (panel 0) names once selected different CG
// fan-outs and now run the same per-column envelope solves. Model
// construction and cache resets run off the clock; only the column
// solves are timed.
func influenceSpec(side, panel int) spec {
	var last *thermal.Model
	kind := "Block"
	if panel == 1 {
		kind = "Column"
	}
	name := fmt.Sprintf("Influence%s/cores=%d", kind, side*side)
	return spec{
		name: name,
		run: func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				thermal.ResetInfluenceCache()
				m := influenceModel(b, side, panel)
				b.StartTimer()
				if _, err := m.InfluenceMatrix(context.Background()); err != nil {
					b.Fatal(err)
				}
				last = m
			}
		},
		solver: func() *thermal.SolverStats {
			if last == nil {
				return nil
			}
			st := last.SolverStats()
			return &st
		},
	}
}

// influenceWarmSpec measures the warm influence path: the process-wide
// cache already holds the platform's matrix, so a freshly constructed
// model must serve InfluenceMatrix without any linear solves.
func influenceWarmSpec(side int) spec {
	var last *thermal.Model
	name := fmt.Sprintf("InfluenceWarm/cores=%d", side*side)
	return spec{
		name: name,
		run: func(b *testing.B) {
			thermal.ResetInfluenceCache()
			warm := influenceModel(b, side, 0)
			if _, err := warm.InfluenceMatrix(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := influenceModel(b, side, 0)
				b.StartTimer()
				if _, err := m.InfluenceMatrix(context.Background()); err != nil {
					b.Fatal(err)
				}
				last = m
			}
		},
		solver: func() *thermal.SolverStats {
			if last == nil {
				return nil
			}
			st := last.SolverStats()
			return &st
		},
	}
}

// tspWarmSpec measures the /v1/tsp request path with a warm influence
// cache: model construction, calculator setup and the full worst-case
// greedy walk — everything a request pays except the (cached) influence
// build.
func tspWarmSpec(side int) spec {
	var last *thermal.Model
	cores := side * side
	name := fmt.Sprintf("TSPWorstCaseWarm/cores=%d", cores)
	return spec{
		name: name,
		run: func(b *testing.B) {
			thermal.ResetInfluenceCache()
			warm := influenceModel(b, side, 0)
			if _, err := warm.InfluenceMatrix(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := influenceModel(b, side, 0)
				c, err := tsp.New(m, 80)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.WorstCase(context.Background(), cores); err != nil {
					b.Fatal(err)
				}
				last = m
			}
		},
		solver: func() *thermal.SolverStats {
			if last == nil {
				return nil
			}
			st := last.SolverStats()
			return &st
		},
	}
}

// thermalSolveSpec measures a cold steady-state solve — model assembly,
// profile ordering, factorization and one solve — on a side×side-core
// platform. The Dense/Sparse name records the compatibility kind only.
func thermalSolveSpec(side int, k thermal.SolverKind) spec {
	var last *thermal.Model
	name := fmt.Sprintf("ThermalSolve%s/cores=%d", pathName(k), side*side)
	return spec{
		name: name,
		run: func(b *testing.B) {
			fp, err := floorplan.NewGrid(side, side, 5.1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := thermal.DefaultConfig(fp.DieW, fp.DieH, side, side)
			cfg.Solver = k
			p := make([]float64, side*side)
			for i := range p {
				p[i] = 2
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := thermal.NewModel(fp, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.SteadyState(p); err != nil {
					b.Fatal(err)
				}
				last = m
			}
		},
		solver: func() *thermal.SolverStats {
			if last == nil {
				return nil
			}
			st := last.SolverStats()
			return &st
		},
	}
}

// tspSpec measures a cold worst-case TSP computation — thermal model,
// influence matrix (one solve per core) and the greedy adversarial walk —
// at side² cores.
func tspSpec(side int, k thermal.SolverKind) spec {
	var last *thermal.Model
	cores := side * side
	name := fmt.Sprintf("TSPWorstCase%s/cores=%d", pathName(k), cores)
	return spec{
		name: name,
		run: func(b *testing.B) {
			fp, err := floorplan.NewGrid(side, side, 5.1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := thermal.DefaultConfig(fp.DieW, fp.DieH, side, side)
			cfg.Solver = k
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A cold run must not hit the process-wide influence
				// cache warmed by a previous iteration or spec.
				thermal.ResetInfluenceCache()
				m, err := thermal.NewModel(fp, cfg)
				if err != nil {
					b.Fatal(err)
				}
				c, err := tsp.New(m, 80)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.WorstCase(context.Background(), cores); err != nil {
					b.Fatal(err)
				}
				last = m
			}
		},
		solver: func() *thermal.SolverStats {
			if last == nil {
				return nil
			}
			st := last.SolverStats()
			return &st
		},
	}
}

func pathName(k thermal.SolverKind) string {
	if k == thermal.SolverSparse {
		return "Sparse"
	}
	return "Dense"
}
