// Package experiments reproduces every table and figure of the paper's
// evaluation: one Run function per figure (Fig1 … Fig14), each returning a
// typed result with a Render method that prints the same rows/series the
// paper reports. cmd/darksim dispatches into this package; bench_test.go
// at the repository root wraps each experiment in a benchmark.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"darksim/internal/apps"
	"darksim/internal/core"
	"darksim/internal/report"
	"darksim/internal/runner"
	"darksim/internal/tech"
	"darksim/internal/tsp"
)

// ErrOptions reports invalid experiment options (negative durations,
// non-positive sweep steps, …). Callers can match it with errors.Is.
var ErrOptions = errors.New("experiments: invalid options")

// platformKey identifies a cached platform.
type platformKey struct {
	node  tech.Node
	cores int
}

// DefaultPlatformCacheCap is the platform cache's LRU bound. The
// paper's figures use four platforms; the bound keeps a long-running
// daemon fed never-seen (node, cores) requests from growing the cache —
// and the factored thermal networks it holds — without limit. Platforms
// do not pin influence matrices: those live only in the thermal
// package's process-wide cache, under its own bound.
const DefaultPlatformCacheCap = 32

var (
	// platforms is the shared platform cache.
	platforms = runner.NewCache[platformKey, *core.Platform](DefaultPlatformCacheCap, 0, nil)

	// buildPlatform is swapped by tests to observe build concurrency.
	buildPlatform = func(node tech.Node, cores int) (*core.Platform, error) {
		return core.NewPlatformWith(node, core.Options{Cores: cores})
	}
)

// platformFor returns a cached Platform: building one factors the
// thermal network, which is worth sharing across experiments. Concurrent
// callers for one (node, cores) key share one build, distinct keys build
// concurrently, and a build error is returned but not cached. Past
// DefaultPlatformCacheCap the least recently used entry is evicted;
// callers already holding it keep using it safely.
func platformFor(node tech.Node, cores int) (*core.Platform, error) {
	p, _, err := platforms.Do(context.TODO(), platformKey{node, cores}, func() (*core.Platform, error) {
		return buildPlatform(node, cores)
	})
	return p, err
}

// PlatformFor exposes the shared platform cache: the service layer and
// external tools reuse the same factored thermal networks the experiments
// run on, instead of factoring a fresh one per request.
func PlatformFor(node tech.Node, cores int) (*core.Platform, error) {
	return platformFor(node, cores)
}

// MaxTSPCores caps the platform a TSP table builds: the influence matrix
// grows quadratically (~134 MB here), while the paper's largest platform
// has 361 cores.
const MaxTSPCores = 4096

// CheckTSPCores rejects cores outside [1, MaxTSPCores] with ErrOptions.
func CheckTSPCores(cores int) error {
	if cores <= 0 || cores > MaxTSPCores {
		return fmt.Errorf("%w: invalid cores %d: want an integer in [1,%d]", ErrOptions, cores, MaxTSPCores)
	}
	return nil
}

// TSPTable is the worst-case TSP table of the cached (node, cores)
// platform at critical temperature tcrit for active-core counts step,
// 2·step, … up to max (all cores if out of range; step below 1 means 1),
// from one tsp.Calculator.Table walk. `darksim tsp` and GET /v1/tsp
// (max = step = active) both serve it.
func TSPTable(ctx context.Context, node tech.Node, cores int, tcrit float64, max, step int) (*report.Table, error) {
	if err := CheckTSPCores(cores); err != nil {
		return nil, err
	}
	if max <= 0 || max > cores {
		max = cores
	}
	if step <= 0 {
		step = 1
	}
	p, err := platformFor(node, cores)
	if err != nil {
		return nil, err
	}
	calc, err := tsp.New(p.Thermal, tcrit)
	if err != nil {
		return nil, err
	}
	entries, err := calc.Table(ctx, max, step)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Worst-case TSP, %s, %d cores, Tcrit = %.1f °C", node, cores, tcrit),
		Columns: []string{"active cores", "TSP/core [W]", "total [W]"},
	}
	for _, e := range entries {
		t.AddRow(strconv.Itoa(e.ActiveCores), fmt.Sprintf("%.3f", e.PerCoreW), fmt.Sprintf("%.1f", e.TotalW))
	}
	return t, nil
}

// ResetPlatforms empties the platform cache. Builds in flight still
// reach their callers but are not stored; subsequent calls rebuild.
// Tests use this to isolate cache state.
func ResetPlatforms() { platforms.Reset() }

// PlatformCacheLen reports the number of cached platforms.
func PlatformCacheLen() int { return platforms.Stats().Entries }

// coresForNode returns the paper's platform size per node (§2.1: "manycore
// systems composed of 100, 198, and 361 cores"): the chip grows as cores
// shrink.
func coresForNode(node tech.Node) int {
	switch node {
	case tech.Node11:
		return 198
	case tech.Node8:
		return 361
	default:
		return 100
	}
}

// CoresForNode exposes the paper's per-node platform size for consumers
// outside this package (e.g. the service layer's TSP endpoint defaults).
func CoresForNode(node tech.Node) int { return coresForNode(node) }

// Renderer is implemented by every experiment result: Render prints the
// ASCII rows and charts, Tables emits the same rows as structured
// report.Tables (chart-shaped figures as long-form series tables). The
// HTTP service marshals the tables as JSON, and `darksim -format json`
// prints them.
type Renderer interface {
	Render(w io.Writer) error
	Tables() []*report.Table
}

// TablesOf extracts the structured tables of a result, reporting false
// for a nil result.
func TablesOf(r Renderer) ([]*report.Table, bool) {
	if r == nil {
		return nil, false
	}
	return r.Tables(), true
}

// renderTables renders tables in order — the common body of the Render
// methods whose ASCII output is exactly their structured tables.
func renderTables(w io.Writer, tables []*report.Table) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// Experiment couples an id with its runner for the CLI registry. Run
// receives a context for cancellation (experiments without long sweeps
// may ignore it) and the simulated run length in seconds, 0 selecting the
// experiment's default. Only Transient experiments take a run length;
// the others ignore it.
type Experiment struct {
	ID          string
	Description string
	Transient   bool
	Run         func(ctx context.Context, durationS float64) (Renderer, error)
}

// fixed adapts a result builder without context or run length to
// Experiment.Run.
func fixed[R Renderer](run func() (R, error)) func(context.Context, float64) (Renderer, error) {
	return func(context.Context, float64) (Renderer, error) { return run() }
}

// cancellable adapts a result builder that takes only a context to
// Experiment.Run.
func cancellable[R Renderer](run func(context.Context) (R, error)) func(context.Context, float64) (Renderer, error) {
	return func(ctx context.Context, _ float64) (Renderer, error) { return run(ctx) }
}

// Registry lists all experiments in figure order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "ITRS scaling factors and derived per-node specs (Figure 1)", false, fixed(Fig1)},
		{"fig2", "Frequency vs voltage design space, Eq.(2) (Figure 2)", false, fixed(Fig2)},
		{"fig3", "Power model fit vs synthetic McPAT samples, x264 @22nm (Figure 3)", false, fixed(Fig3)},
		{"fig4", "Speed-up vs parallel threads (Figure 4)", false, fixed(Fig4)},
		{"fig5", "Dark silicon under optimistic/pessimistic TDP (Figure 5)", false, fixed(Fig5)},
		{"fig6", "TDP- vs temperature-constrained dark silicon (Figure 6)", false, fixed(Fig6)},
		{"fig7", "DVFS scenarios: performance and dark silicon (Figure 7)", false, fixed(Fig7)},
		{"fig8", "Dark silicon patterning vs contiguous mapping (Figure 8)", false, fixed(Fig8)},
		{"fig9", "TDPmap vs DsRem (Figure 9)", false, fixed(Fig9)},
		{"fig10", "Performance under TSP across nodes (Figure 10)", false, cancellable(Fig10)},
		{"fig11", "Boosting vs constant frequency transients (Figure 11)", true, func(ctx context.Context, d float64) (Renderer, error) {
			return Fig11(ctx, d)
		}},
		{"fig12", "Boost/constant scaling with active cores (Figure 12)", true, func(ctx context.Context, d float64) (Renderer, error) {
			return Fig12(ctx, d)
		}},
		{"fig13", "Boost/constant across applications @11nm (Figure 13)", true, func(ctx context.Context, d float64) (Renderer, error) {
			return Fig13(ctx, d)
		}},
		{"fig14", "STC vs NTC performance and energy (Figure 14)", false, fixed(Fig14)},
	}
}

// ByID finds one experiment in Registry or AblationRegistry.
func ByID(id string) (Experiment, error) {
	for _, e := range append(Registry(), AblationRegistry()...) {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunWithDuration validates a run length and runs one registry entry
// with it: duration > 0 overrides a transient experiment's simulated run
// length, 0 keeps its default, and the other experiments ignore it. A
// negative or non-finite duration is rejected with ErrOptions for every
// experiment. This is the shared entry point of the CLI's -duration flag,
// the HTTP service's duration parameter, golden verification and the
// bench harness's shortened per-figure runs.
func RunWithDuration(ctx context.Context, e Experiment, duration float64) (Renderer, error) {
	if err := CheckDuration(e.ID, duration); err != nil {
		return nil, err
	}
	r, err := e.Run(ctx, duration)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("experiments: %s returned no result", e.ID)
	}
	return r, nil
}

// paperOrder returns the catalog in the paper's per-figure (a)–(g) order:
// x264, blackscholes, bodytrack, ferret, canneal, dedup, swaptions.
func paperOrder() []apps.App {
	order := []string{"x264", "blackscholes", "bodytrack", "ferret", "canneal", "dedup", "swaptions"}
	cat := apps.Catalog()
	rank := make(map[string]int, len(order))
	for i, n := range order {
		rank[n] = i
	}
	sort.SliceStable(cat, func(i, j int) bool { return rank[cat[i].Name] < rank[cat[j].Name] })
	return cat
}
