// Package verify implements the golden-corpus verification subsystem
// behind `darksim verify`: every figure is recomputed under canonical
// options and checked three ways — against the embedded golden corpus
// with per-cell tolerances, against the paper's physics invariants, and
// differentially across the text/JSON/HTTP renderings plus a
// sequential warm-cache recomputation that must be byte-identical.
package verify

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"darksim/internal/experiments"
	"darksim/internal/report"
	"darksim/internal/runner"
)

// transientDurationS pins the transient figures to a short transient so a full
// verification run stays interactive; the value is recorded in each
// golden file's options.
const transientDurationS = 2.0

// figureSpec is one figure's canonical verification configuration.
type figureSpec struct {
	ID string
	// Options records any non-default options the run uses, for the
	// golden file.
	Options map[string]string
	Run     func(ctx context.Context) (experiments.Renderer, error)
}

// Specs returns the canonical run configuration for every registered
// figure: defaults everywhere except the registry's transient figures,
// which run with a short pinned duration.
func Specs() []figureSpec {
	var specs []figureSpec
	for _, e := range experiments.Registry() {
		sp := figureSpec{ID: e.ID}
		var duration float64
		if e.Transient {
			duration = transientDurationS
			sp.Options = map[string]string{"duration_s": strconv.FormatFloat(duration, 'g', -1, 64)}
		}
		sp.Run = func(ctx context.Context) (experiments.Renderer, error) {
			return experiments.RunWithDuration(ctx, e, duration)
		}
		specs = append(specs, sp)
	}
	return specs
}

// Failure is one verification finding, naming the figure and check that
// produced it.
type Failure struct {
	Figure string
	Check  string
	Detail string
}

func (f Failure) String() string { return fmt.Sprintf("%s [%s]: %s", f.Figure, f.Check, f.Detail) }

// Options configures a verification run.
type Options struct {
	// Figures restricts the run to these ids; empty means all.
	Figures []string
	// Update regenerates the golden corpus instead of checking it.
	Update bool
	// GoldenDir is where -update writes; defaults to
	// experiments.GoldenDir. Checks read the embedded
	// experiments.GoldenCorpus().
	GoldenDir string
	// Workers bounds the parallel first pass; 0 means
	// runner.DefaultWorkers().
	Workers int
	// Out receives progress lines; nil discards them.
	Out io.Writer
}

// figureResult couples a spec with its computed result.
type figureResult struct {
	spec   figureSpec
	res    experiments.Renderer
	tables []*report.Table
}

// Run executes the verification pipeline and returns every failure. A
// non-nil error means the run itself could not complete (unknown figure,
// computation error); failures mean the checks ran and found drift.
func Run(ctx context.Context, opt Options) ([]Failure, error) {
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	if opt.GoldenDir == "" {
		opt.GoldenDir = experiments.GoldenDir
	}
	specs, err := selectSpecs(opt.Figures)
	if err != nil {
		return nil, err
	}

	// Pass A: compute every figure in parallel from a cold platform
	// cache — the canonical results all three check layers consume.
	experiments.ResetPlatforms()
	fmt.Fprintf(out, "verify: computing %d figure(s)\n", len(specs))
	results, err := computeAll(ctx, specs, opt.Workers)
	if err != nil {
		return nil, err
	}

	if opt.Update {
		for _, fr := range results {
			path, err := writeGolden(opt.GoldenDir, &GoldenFile{
				ID:        fr.spec.ID,
				Options:   fr.spec.Options,
				Tolerance: DefaultTolerance,
				Tables:    fr.tables,
			})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "verify: wrote %s\n", path)
		}
		return nil, nil
	}

	var fails []Failure

	// Layer 1: golden corpus.
	for _, fr := range results {
		g, err := loadGolden(experiments.GoldenCorpus(), fr.spec.ID)
		if err != nil {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "golden", Detail: err.Error()})
			continue
		}
		fails = append(fails, compareToGolden(fr.spec.ID, fr.tables, g)...)
	}
	fmt.Fprintf(out, "verify: golden corpus checked (%d failure(s) so far)\n", len(fails))

	// Layer 2: physics invariants.
	fails = append(fails, runInvariants(results)...)
	fmt.Fprintf(out, "verify: invariants checked (%d failure(s) so far)\n", len(fails))

	// Layer 3: differential renderings.
	for _, fr := range results {
		fails = append(fails, diffRenderings(fr.spec.ID, fr.tables)...)
	}
	fails = append(fails, diffHTTP(results)...)
	fmt.Fprintf(out, "verify: differential renderings checked (%d failure(s) so far)\n", len(fails))

	// Layer 3b: sequential warm-cache recomputation must render
	// byte-identically — parallelism and platform-cache state must not
	// leak into results.
	fmt.Fprintf(out, "verify: recomputing sequentially for determinism\n")
	fails = append(fails, checkDeterminism(ctx, results)...)

	// Layer 4: scenario-engine differential — the declarative front end
	// must reproduce the paper's fixed platforms bit for bit. Full runs
	// only: the sweep is standalone and a -figs subset asks for less.
	if len(opt.Figures) == 0 {
		fmt.Fprintf(out, "verify: scenario differential against fixed platforms\n")
		fails = append(fails, checkScenarioDifferential(ctx)...)
	}

	// Layer 5: policy-sandbox smoke — the safe policy trio must pass
	// every trace assertion and the negative control must be caught.
	// Full runs only, like layer 4.
	if len(opt.Figures) == 0 {
		fmt.Fprintf(out, "verify: policy sandbox assertions\n")
		fails = append(fails, checkPolicySandbox(ctx)...)
	}
	return fails, nil
}

// selectSpecs resolves the figure filter against the canonical specs.
func selectSpecs(figures []string) ([]figureSpec, error) {
	specs := Specs()
	if len(figures) == 0 {
		return specs, nil
	}
	byID := make(map[string]figureSpec, len(specs))
	for _, sp := range specs {
		byID[sp.ID] = sp
	}
	var picked []figureSpec
	for _, id := range figures {
		sp, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("verify: unknown figure %q", id)
		}
		picked = append(picked, sp)
	}
	sort.SliceStable(picked, func(i, j int) bool { return figOrder(picked[i].ID) < figOrder(picked[j].ID) })
	return picked, nil
}

// figOrder sorts figN ids numerically.
func figOrder(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "fig"))
	if err != nil {
		return 1 << 30
	}
	return n
}

// computeAll runs every spec through the bounded parallel runner.
func computeAll(ctx context.Context, specs []figureSpec, workers int) ([]*figureResult, error) {
	return runner.Map(ctx, specs, runner.Options{Workers: workers},
		func(ctx context.Context, _ int, sp figureSpec) (*figureResult, error) {
			res, err := sp.Run(ctx)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.ID, err)
			}
			return &figureResult{spec: sp, res: res, tables: res.Tables()}, nil
		})
}

// runInvariants evaluates every invariant whose input figure was
// computed this run; standalone invariants always run.
func runInvariants(results []*figureResult) []Failure {
	byID := make(map[string]*figureResult, len(results))
	for _, fr := range results {
		byID[fr.spec.ID] = fr
	}
	var fails []Failure
	for _, inv := range Invariants() {
		figure := inv.Figure
		var input experiments.Renderer
		if figure != "" {
			fr, ok := byID[figure]
			if !ok {
				continue // subset run without this invariant's figure
			}
			input = fr.res
		} else {
			figure = "model"
		}
		if err := inv.Check(input); err != nil {
			fails = append(fails, Failure{Figure: figure, Check: "invariant:" + inv.Name,
				Detail: fmt.Sprintf("%v — pins %s", err, inv.Pins)})
		}
	}
	return fails
}

// renderAll concatenates the rendered text of a figure's tables; the
// determinism check compares these byte-for-byte.
func renderAll(tables []*report.Table) (string, error) {
	var buf bytes.Buffer
	for _, t := range tables {
		if err := t.Render(&buf); err != nil {
			return "", err
		}
	}
	return buf.String(), nil
}

// checkDeterminism recomputes every figure sequentially against the now
// warm platform cache and requires byte-identical rendered output: the
// parallel/sequential and cold/warm-cache axes must not change results.
func checkDeterminism(ctx context.Context, results []*figureResult) []Failure {
	var fails []Failure
	for _, fr := range results {
		want, err := renderAll(fr.tables)
		if err != nil {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "determinism", Detail: err.Error()})
			continue
		}
		res, err := fr.spec.Run(ctx)
		if err != nil {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "determinism",
				Detail: fmt.Sprintf("sequential recomputation failed: %v", err)})
			continue
		}
		got, err := renderAll(res.Tables())
		if err != nil {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "determinism", Detail: err.Error()})
			continue
		}
		if got != want {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "determinism",
				Detail: fmt.Sprintf("warm-cache sequential rerun rendered differently (first divergence at byte %d of %d)",
					firstDiff(got, want), len(want))})
		}
	}
	return fails
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
