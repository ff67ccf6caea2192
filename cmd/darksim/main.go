// Command darksim runs the paper-reproduction experiments and prints the
// rows and series the paper's tables and figures report.
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
//
// `darksim run` submits the computation to a running darksimd as an
// asynchronous run; -follow streams its per-point partial results over
// SSE (reconnecting with Last-Event-ID after drops) and exits 0/1/3 for
// done/failed/cancelled.
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

// output is one experiment's result in either representation: rendered
// text, or the structured tables the JSON format marshals.
type output struct {
	ID     string          `json:"id"`
	Tables []*report.Table `json:"tables,omitempty"`
	text   []byte
}

func main() {
	duration := flag.Float64("duration", 0, "override the transient experiments' simulated duration in seconds (0 = default)")
	parallel := flag.Int("parallel", 0, "experiments to run concurrently for 'all'/'ablations' (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long, e.g. 10m (0 = no timeout)")
	format := flag.String("format", "text", "output format: text or json")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	subcommands := map[string]bool{"verify": true, "bench": true, "scenario": true, "run": true, "policy": true}
	if len(args) == 0 || (len(args) != 1 && !subcommands[args[0]]) || (*format != "text" && *format != "json") {
		usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	switch args[0] {
	case "verify":
		if err := runVerify(ctx, args[1:], *parallel, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
			os.Exit(1)
		}
		return
	case "bench":
		if err := runBench(ctx, args[1:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
			os.Exit(1)
		}
		return
	case "scenario":
		if err := runScenario(ctx, args[1:], *format, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
			os.Exit(1)
		}
	case "run":
		code, err := runRun(ctx, args[1:], *format, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
		}
		os.Exit(code)
	case "policy":
		if err := runPolicy(ctx, args[1:], *format, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
			os.Exit(1)
		}
	case "list":
		for _, e := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", e.ID, e.Description)
		}
		for _, e := range experiments.AblationRegistry() {
			fmt.Printf("%-12s %s\n", e.ID, e.Description)
		}
	case "all":
		if err := runAll(ctx, experiments.Registry(), *parallel, *duration, *format, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
			os.Exit(1)
		}
	case "ablations":
		if err := runAll(ctx, experiments.AblationRegistry(), *parallel, *duration, *format, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
			os.Exit(1)
		}
	default:
		if err := runOne(ctx, args[0], *duration, *format, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "darksim: %v\n", err)
			os.Exit(1)
		}
	}
}

// runVerify parses the verify subcommand's own flags and runs the
// three-layer verification pipeline, returning an error naming the
// failing figure/cell when any check fails.
func runVerify(ctx context.Context, args []string, parallel int, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	update := fs.Bool("update", false, "regenerate the golden corpus instead of checking it")
	golden := fs.String("golden", experiments.GoldenDir, "directory -update writes golden files to")
	figs := fs.String("figs", "", "comma-separated figure subset, e.g. fig1,fig5 (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: darksim verify [-update] [-golden dir] [-figs fig1,fig2,...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("verify takes no positional arguments")
	}
	opt := verify.Options{
		Update:    *update,
		GoldenDir: *golden,
		Workers:   parallel,
		Out:       w,
	}
	if *figs != "" {
		for _, id := range strings.Split(*figs, ",") {
			if id = strings.TrimSpace(id); id != "" {
				opt.Figures = append(opt.Figures, id)
			}
		}
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
func runScenario(ctx context.Context, args []string, format string, w io.Writer) error {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	specFile := fs.String("spec", "", "JSON scenario spec file ('-' for stdin)")
	name := fs.String("name", "", "run a built-in pack scenario by name")
	list := fs.Bool("list", false, "list the built-in scenario pack")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: darksim scenario -spec file.json | -name <pack scenario> | -list\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("scenario takes no positional arguments")
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
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(output{ID: "scenario", Tables: tables})
	}
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
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
func runBench(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "", "file the JSON report is written to ('-' for stdout; empty writes no report)")
	benchtime := fs.String("benchtime", "1x", "per-benchmark time or iteration budget (testing -benchtime syntax)")
	figures := fs.Bool("figures", true, "include the per-figure experiment benchmarks")
	compare := fs.String("compare", "", "baseline JSON report to diff against; headline regressions fail the run")
	threshold := fs.Float64("threshold", bench.DefaultRegressionThreshold,
		"new/old ns-per-op ratio above which a headline benchmark fails -compare")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the benchmark run to this file")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: darksim bench [-out file] [-benchtime 1x|2s] [-figures=false] [-compare old.json [-threshold 1.25]] [-cpuprofile cpu.out] [-memprofile mem.out]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("bench takes no positional arguments")
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
			o, rerr := makeOutput(e.ID, r, format)
			if rerr != nil {
				return nil, fail(rerr)
			}
			return o, nil
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

// makeOutput realizes one result in the requested format.
func makeOutput(id string, r experiments.Renderer, format string) (*output, error) {
	o := &output{ID: id}
	if format == "json" {
		o.Tables = r.Tables()
		return o, nil
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "==== %s ====\n", id)
	if err := r.Render(&buf); err != nil {
		return nil, err
	}
	fmt.Fprintln(&buf)
	o.text = buf.Bytes()
	return o, nil
}

// writeOutputs writes the completed outputs in order: concatenated text,
// or one JSON array.
func writeOutputs(w io.Writer, outs []*output, format string) error {
	if format == "json" {
		done := make([]*output, 0, len(outs))
		for _, o := range outs {
			if o != nil {
				done = append(done, o)
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(done)
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

func runOne(ctx context.Context, id string, duration float64, format string, w io.Writer) error {
	r, err := run(ctx, id, duration)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && !strings.HasPrefix(err.Error(), id+":") && !strings.HasPrefix(err.Error(), id+" ") {
			return fmt.Errorf("timed out before %s completed: %w", id, err)
		}
		return err
	}
	o, err := makeOutput(id, r, format)
	if err != nil {
		return err
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(o)
	}
	_, err = w.Write(o.text)
	return err
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

func usage() {
	fmt.Fprintf(os.Stderr, `usage: darksim [-duration s] [-parallel n] [-timeout d] [-format text|json] <experiment|all|ablations|list>
       darksim verify [-update] [-golden dir] [-figs fig1,fig2,...]
       darksim bench [-out file] [-benchtime 1x|2s] [-figures=false]
       darksim scenario -spec file.json | -name <pack scenario> | -list
       darksim policy -spec file.json | -pack <pack scenario> [-policies a,b,c] [-tune name] | -list
       darksim run [-addr url] [-duration s] [-follow] <experiment>|-spec file.json

Reproduces the tables and figures of "New Trends in Dark Silicon"
(Henkel, Khdr, Pagani, Shafique — DAC 2015), plus ablation studies of
this implementation's design choices. `+"`darksim verify`"+` recomputes
every figure and checks it against the embedded golden corpus, the
paper's physics invariants, and differential text/CSV/JSON/HTTP
renderings.

`)
	flag.PrintDefaults()
}
