// Command darksim runs the paper-reproduction experiments and prints the
// rows and series the paper's tables and figures report, and carries the
// paper's toolflow steps — floorplan generation, the HotSpot-style
// thermal simulation and the Thermal Safe Power table — as subcommands.
//
// Usage:
//
//	darksim list                 # list available experiments
//	darksim fig5                 # run one experiment
//	darksim all                  # run everything (transients included)
//	darksim -duration 20 fig11   # shorten the transient experiments
//	darksim -parallel 4 all      # run 4 figures concurrently
//	darksim -timeout 10m all     # abort a run that exceeds 10 minutes
//	darksim -format json fig1    # structured output (report.Table JSON)
//	darksim verify               # check figures against the golden corpus
//	darksim verify -update       # regenerate the golden corpus
//	darksim bench                # write the perf-trajectory JSON report
//	darksim run -follow fig12    # submit to a darksimd daemon and stream
//	darksim tsp -node 16 -cores 100                # TSP vs active cores
//	darksim floorplan -node 8 -cores 361 > c.flp   # HotSpot-style floorplan
//	darksim thermal -flp c.flp -ptrace run.ptrace -transient
//
// Every subcommand is one row of the commands table, which also generates
// the usage text; an argument that names no subcommand is an experiment
// id. `darksim run` submits the computation to a running darksimd as an
// asynchronous run; -follow streams its per-point partial results over
// SSE (reconnecting with Last-Event-ID after drops) and exits 0/1/3 for
// done/failed/cancelled. `darksim tsp` prints the same table GET /v1/tsp
// serves (experiments.TSPTable).
//
// Transient experiments default to the paper's run lengths; -duration
// trades fidelity for speed and rejects negative or non-finite values.
// With `all` and `ablations` the independent experiments run concurrently
// (bounded by -parallel), but their outputs are printed in registry
// order, byte-identical to a sequential run. On -timeout expiry the exit is non-zero and the error
// names the figures that did not complete.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"darksim/internal/bench"
	"darksim/internal/experiments"
	"darksim/internal/report"
	"darksim/internal/runner"
	"darksim/internal/scenario"
	"darksim/internal/verify"
)

// env is what the dispatcher hands a subcommand: the global flags, the
// output stream, and a flag set for the subcommand's own flags whose
// usage prints the subcommand's synopsis.
type env struct {
	duration float64
	parallel int
	format   string
	out      io.Writer
	flags    *flag.FlagSet
}

// parse parses args into the subcommand's flags; positional arguments
// are an error.
func (e *env) parse(args []string) error {
	if err := e.flags.Parse(args); err != nil {
		return err
	}
	if e.flags.NArg() != 0 {
		e.flags.Usage()
		return fmt.Errorf("%s takes no positional arguments", e.flags.Name())
	}
	return nil
}

// command is one row of the dispatch table.
type command struct {
	name string
	// synopsis follows "darksim" in the usage text. Commands without one
	// take no arguments and share the experiment usage line.
	synopsis string
	run      func(ctx context.Context, e *env, args []string) error
}

// commands is the dispatch table: every darksim subcommand, in usage
// order.
var commands = []command{
	{name: "list", run: func(_ context.Context, e *env, _ []string) error {
		for _, x := range append(experiments.Registry(), experiments.AblationRegistry()...) {
			fmt.Fprintf(e.out, "%-12s %s\n", x.ID, x.Description)
		}
		return nil
	}},
	{name: "all", run: func(ctx context.Context, e *env, _ []string) error {
		return runAll(ctx, experiments.Registry(), e.parallel, e.duration, e.format, e.out)
	}},
	{name: "ablations", run: func(ctx context.Context, e *env, _ []string) error {
		return runAll(ctx, experiments.AblationRegistry(), e.parallel, e.duration, e.format, e.out)
	}},
	{name: "verify", synopsis: "verify [-update] [-golden dir] [-figs fig1,fig2,...]", run: runVerify},
	{name: "bench", synopsis: "bench [-out file] [-benchtime 1x|2s] [-figures=false] [-compare old.json [-threshold 1.25]] [-cpuprofile cpu.out] [-memprofile mem.out]", run: runBench},
	{name: "scenario", synopsis: "scenario -spec file.json | -name <pack scenario> | -list", run: runScenario},
	{name: "policy", synopsis: "policy -spec file.json | -pack <pack scenario> [-policies a,b,c] [-tune name] | -list", run: runPolicy},
	{name: "run", synopsis: "run [-addr url] [-duration s] [-follow] <experiment> | -spec file.json", run: runRun},
	{name: "tsp", synopsis: "tsp [-node nm] [-cores n] [-tcrit °C] [-max n] [-step n]", run: runTSP},
	{name: "floorplan", synopsis: "floorplan -node nm [-cores n] | -cols n -rows n -area mm²", run: runFloorplan},
	{name: "thermal", synopsis: "thermal -flp file.flp [-config file.config] -ptrace file.ptrace [-transient [-dt s]]", run: runThermal},
}

// lookup returns the named command, or one that runs the experiment of
// that id.
func lookup(name string) command {
	for _, c := range commands {
		if c.name == name {
			return c
		}
	}
	return command{name: name, run: func(ctx context.Context, e *env, _ []string) error {
		return runOne(ctx, name, e.duration, e.format, e.out)
	}}
}

// Process exit statuses. `darksim run -follow` maps the run's terminal
// state onto them: done exits 0, failed exits 1, cancelled exits 3.
const (
	exitOK        = 0
	exitFailed    = 1
	exitUsage     = 2
	exitCancelled = 3
)

// exitError carries an exit status other than exitFailed.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }

func (e *exitError) Unwrap() error { return e.err }

// exitStatus maps a subcommand's error to its process exit status.
func exitStatus(err error) int {
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	if err != nil {
		return exitFailed
	}
	return exitOK
}

func main() {
	os.Exit(execute(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// execute parses the global flags, dispatches the rest of args through
// the commands table and returns the process exit status.
func execute(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	global := flag.NewFlagSet("darksim", flag.ContinueOnError)
	global.SetOutput(stderr)
	e := &env{out: stdout}
	global.Float64Var(&e.duration, "duration", 0, "override the transient experiments' simulated duration in seconds (0 = default)")
	global.IntVar(&e.parallel, "parallel", 0, "experiments to run concurrently for 'all'/'ablations' (0 = GOMAXPROCS)")
	timeout := global.Duration("timeout", 0, "abort the whole run after this long, e.g. 10m (0 = no timeout)")
	global.StringVar(&e.format, "format", "text", "output format: text or json")
	global.Usage = func() { usage(global) }
	if err := global.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	args = global.Args()
	if len(args) == 0 || (e.format != "text" && e.format != "json") {
		global.Usage()
		return exitUsage
	}
	cmd := lookup(args[0])
	if cmd.synopsis == "" && len(args) != 1 {
		global.Usage()
		return exitUsage
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	e.flags = flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	e.flags.SetOutput(stderr)
	e.flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: darksim %s\n\n", cmd.synopsis)
		e.flags.PrintDefaults()
	}
	err := cmd.run(ctx, e, args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return exitOK
	}
	if err != nil {
		fmt.Fprintf(stderr, "darksim: %v\n", err)
	}
	return exitStatus(err)
}

// usage prints the usage text generated from the commands table.
func usage(global *flag.FlagSet) {
	w := global.Output()
	var bare []string
	var lines strings.Builder
	for _, c := range commands {
		if c.synopsis == "" {
			bare = append(bare, c.name)
		} else {
			fmt.Fprintf(&lines, "       darksim %s\n", c.synopsis)
		}
	}
	fmt.Fprintf(w, "usage: darksim [-duration s] [-parallel n] [-timeout d] [-format text|json] <experiment|%s>\n%s", strings.Join(bare, "|"), lines.String())
	fmt.Fprint(w, `
Reproduces the tables and figures of "New Trends in Dark Silicon"
(Henkel, Khdr, Pagani, Shafique — DAC 2015), plus ablation studies of
this implementation's design choices. `+"`darksim verify`"+` recomputes
every figure and checks it against the embedded golden corpus, the
paper's physics invariants, and differential text/JSON/HTTP
renderings.

`)
	global.PrintDefaults()
}

// runVerify parses the verify subcommand's own flags and runs the
// three-layer verification pipeline, returning an error naming the
// failing figure/cell when any check fails.
func runVerify(ctx context.Context, e *env, args []string) error {
	fs, w := e.flags, e.out
	update := fs.Bool("update", false, "regenerate the golden corpus instead of checking it")
	golden := fs.String("golden", experiments.GoldenDir, "directory -update writes golden files to")
	figs := fs.String("figs", "", "comma-separated figure subset, e.g. fig1,fig5 (default: all)")
	if err := e.parse(args); err != nil {
		return err
	}
	opt := verify.Options{
		Update:    *update,
		GoldenDir: *golden,
		Workers:   e.parallel,
		Out:       w,
		Figures:   splitList(*figs),
	}
	fails, err := verify.Run(ctx, opt)
	if err != nil {
		return err
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(w, "FAIL %s\n", f)
		}
		return fmt.Errorf("verification failed: %d check(s)", len(fails))
	}
	if !*update {
		fmt.Fprintln(w, "verify: all checks passed")
	}
	return nil
}

// runScenario compiles and evaluates a declarative chip/workload spec —
// from a JSON file (-spec), or the built-in Charm exemplar pack (-name,
// -list) — through the same platform/thermal machinery the figures use.
func runScenario(ctx context.Context, e *env, args []string) error {
	fs, w := e.flags, e.out
	specFile := fs.String("spec", "", "JSON scenario spec file ('-' for stdin)")
	name := fs.String("name", "", "run a built-in pack scenario by name")
	list := fs.Bool("list", false, "list the built-in scenario pack")
	if err := e.parse(args); err != nil {
		return err
	}
	if *list {
		for _, s := range scenario.Pack() {
			h, err := scenario.Hash(s)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-30s %s %4d cores  TDP %.0f W  %s\n",
				s.Name, fmt.Sprintf("%dnm", s.NodeNM), s.TotalCores(), s.TDPW, h[:12])
		}
		return nil
	}
	var spec scenario.Spec
	switch {
	case *specFile != "" && *name != "":
		return fmt.Errorf("scenario: -spec and -name are mutually exclusive")
	case *specFile != "":
		data, err := readSpecFile(*specFile)
		if err != nil {
			return err
		}
		if spec, err = scenario.Parse(data); err != nil {
			return err
		}
	case *name != "":
		var err error
		if spec, err = scenario.PackByName(*name); err != nil {
			return err
		}
	default:
		fs.Usage()
		return fmt.Errorf("scenario: one of -spec, -name or -list is required")
	}
	sc, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	res, err := sc.Evaluate(ctx)
	if err != nil {
		return err
	}
	tables := res.Tables()
	return writeTables(w, e.format, "scenario", tables, tableText(tables))
}

// readSpecFile loads a spec document from a path or stdin ("-").
func readSpecFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// runBench parses the bench subcommand's flags and runs the perf harness:
// dense-vs-sparse thermal-solver and TSP micro-benchmarks plus (by
// default) one benchmark per paper figure, written as a JSON report for
// cross-PR perf tracking.
func runBench(ctx context.Context, e *env, args []string) error {
	fs, w := e.flags, e.out
	out := fs.String("out", "", "file the JSON report is written to ('-' for stdout; empty writes no report)")
	benchtime := fs.String("benchtime", "1x", "per-benchmark time or iteration budget (testing -benchtime syntax)")
	figures := fs.Bool("figures", true, "include the per-figure experiment benchmarks")
	compare := fs.String("compare", "", "baseline JSON report to diff against; headline regressions fail the run")
	threshold := fs.Float64("threshold", bench.DefaultRegressionThreshold,
		"new/old ns-per-op ratio above which a headline benchmark fails -compare")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	if err := e.parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "darksim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "darksim: memprofile: %v\n", err)
			}
		}()
	}
	var baseline *bench.Report
	if *compare != "" {
		// Load before benchmarking so a bad path fails in milliseconds.
		var err error
		if baseline, err = bench.ReadReport(*compare); err != nil {
			return err
		}
	}
	// testing.Benchmark reads the test.benchtime flag; register the
	// testing flags and set it explicitly so a non-test binary gets a
	// deterministic budget instead of the 1 s default.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return fmt.Errorf("invalid -benchtime %q: %w", *benchtime, err)
	}
	rep, err := bench.Run(ctx, bench.Options{Figures: *figures, Out: w})
	if err != nil {
		return err
	}
	switch *out {
	case "":
	case "-":
		if err := rep.WriteJSON(w); err != nil {
			return err
		}
	default:
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench: report written to %s\n", *out)
	}
	if baseline != nil {
		deltas, cmpErr := bench.Compare(baseline, rep, *threshold)
		fmt.Fprintf(w, "bench: comparing against %s (threshold %.2fx)\n", *compare, *threshold)
		bench.WriteDeltas(w, deltas, *threshold)
		if cmpErr != nil {
			return cmpErr
		}
		fmt.Fprintln(w, "bench: no headline regressions")
	}
	return nil
}

// output is one result in either representation: rendered
// text, or the structured tables the JSON format marshals.
type output struct {
	ID     string          `json:"id"`
	Tables []*report.Table `json:"tables,omitempty"`
	text   []byte
}

// runAll runs every experiment with up to `parallel` running concurrently
// and writes the outputs to w in registry order regardless of completion
// order. On failure the outputs that did complete are still written (in
// order, with gaps) before the first failure is returned; on timeout the
// returned error names every figure that did not complete.
func runAll(ctx context.Context, entries []experiments.Experiment, parallel int, duration float64, format string, w io.Writer) error {
	outs, err := runner.Map(ctx, entries, runner.Options{Workers: parallel},
		func(ctx context.Context, _ int, e experiments.Experiment) (*output, error) {
			// The sweep experiments already prefix their errors with the
			// figure id; add it only when missing.
			fail := func(err error) error {
				if strings.HasPrefix(err.Error(), e.ID+":") {
					return err
				}
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			r, rerr := experiments.RunWithDuration(ctx, e, duration)
			if rerr != nil {
				return nil, fail(rerr)
			}
			if format == "json" {
				return &output{ID: e.ID, Tables: r.Tables()}, nil
			}
			var buf bytes.Buffer
			if rerr := experimentText(e.ID, r)(&buf); rerr != nil {
				return nil, fail(rerr)
			}
			return &output{ID: e.ID, text: buf.Bytes()}, nil
		})
	if werr := writeOutputs(w, outs, format); werr != nil {
		return werr
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		var missing []string
		for i, out := range outs {
			if out == nil {
				missing = append(missing, entries[i].ID)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("timed out before %d figure(s) completed: %s: %w",
				len(missing), strings.Join(missing, ", "), context.DeadlineExceeded)
		}
	}
	return err
}

// writeTables writes one result in format: the text render writes, or
// one indented JSON output of its tables. Every single-result
// subcommand (an experiment, scenario, policy, tsp) prints through it.
func writeTables(w io.Writer, format, id string, tables []*report.Table, render func(io.Writer) error) error {
	if format == "json" {
		return writeJSON(w, output{ID: id, Tables: tables})
	}
	return render(w)
}

// tableText renders each table followed by a blank line, the text form
// of a scenario, a policy race and a finished run.
func tableText(tables []*report.Table) func(io.Writer) error {
	return func(w io.Writer) error {
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// experimentText renders one experiment's result under its
// "==== id ====" heading.
func experimentText(id string, r experiments.Renderer) func(io.Writer) error {
	return func(w io.Writer) error {
		fmt.Fprintf(w, "==== %s ====\n", id)
		err := r.Render(w)
		fmt.Fprintln(w)
		return err
	}
}

// writeOutputs writes the completed outputs (nil entries did not
// complete) in order: their text concatenated, or one JSON array.
func writeOutputs(w io.Writer, outs []*output, format string) error {
	if format == "json" {
		done := make([]*output, 0, len(outs))
		for _, o := range outs {
			if o != nil {
				done = append(done, o)
			}
		}
		return writeJSON(w, done)
	}
	for _, o := range outs {
		if o != nil {
			if _, err := w.Write(o.text); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeJSON writes v as indented JSON, the encoding of every -format
// json result.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func runOne(ctx context.Context, id string, duration float64, format string, w io.Writer) error {
	r, err := run(ctx, id, duration)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && !strings.HasPrefix(err.Error(), id+":") && !strings.HasPrefix(err.Error(), id+" ") {
			return fmt.Errorf("timed out before %s completed: %w", id, err)
		}
		return err
	}
	return writeTables(w, format, id, r.Tables(), experimentText(id, r))
}

// run looks id up in both registries and runs it with the optional run
// length override (0 = default; negative or non-finite is an error).
func run(ctx context.Context, id string, duration float64) (experiments.Renderer, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return experiments.RunWithDuration(ctx, e, duration)
}
