// Package experiments reproduces every table and figure of the paper's
// evaluation: one Run function per figure (Fig1 … Fig14), each returning a
// typed result with a Render method that prints the same rows/series the
// paper reports. cmd/darksim dispatches into this package; bench_test.go
// at the repository root wraps each experiment in a benchmark.
package experiments

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"darksim/internal/apps"
	"darksim/internal/core"
	"darksim/internal/report"
	"darksim/internal/tech"
)

// ErrOptions reports invalid experiment options (negative durations,
// non-positive sweep steps, …). Callers can match it with errors.Is.
var ErrOptions = errors.New("experiments: invalid options")

// platformKey identifies a cached platform.
type platformKey struct {
	node  tech.Node
	cores int
}

// platEntry is one cache slot: the once serializes the build of this key
// only, so distinct keys factor their thermal networks in parallel while
// duplicate requests share a single build.
type platEntry struct {
	once sync.Once
	p    *core.Platform
	err  error
	elem *list.Element // position in platLRU; Value is the platformKey
	done atomic.Bool   // set once p and err are final
}

// DefaultPlatformCacheCap is the platform cache's LRU bound until
// SetPlatformCacheCap changes it. The paper's figures use four
// platforms; the bound keeps a long-running daemon fed never-seen
// (node, cores) requests from growing the cache — and the factored
// thermal networks and influence matrices it pins — without limit.
const DefaultPlatformCacheCap = 32

var (
	platMu    sync.Mutex // guards the map/list/cap, never held across a build
	platCache = map[platformKey]*platEntry{}
	platLRU   = list.New()              // front = most recently used
	platCap   = DefaultPlatformCacheCap // 0 or negative = unbounded

	// buildPlatform is swapped by tests to observe build concurrency.
	buildPlatform = func(node tech.Node, cores int) (*core.Platform, error) {
		return core.NewPlatformWith(node, core.Options{Cores: cores})
	}
)

// platformFor returns a cached Platform: building one factors the
// thermal network, which is worth sharing across experiments. The result
// (including a build error) is cached per (node, cores) key; concurrent
// callers for different keys build concurrently. Past the cap (see
// SetPlatformCacheCap) the least recently used entry is evicted; callers
// already holding an evicted entry keep using it safely.
func platformFor(node tech.Node, cores int) (*core.Platform, error) {
	key := platformKey{node, cores}
	platMu.Lock()
	e := platCache[key]
	var evicted []*platEntry
	if e == nil {
		e = &platEntry{}
		platCache[key] = e
		e.elem = platLRU.PushFront(key)
		evicted = evictPlatformsLocked()
	} else {
		platLRU.MoveToFront(e.elem)
	}
	platMu.Unlock()
	releasePlatforms(evicted)
	e.once.Do(func() {
		e.p, e.err = buildPlatform(node, cores)
		e.done.Store(true)
	})
	return e.p, e.err
}

// evictPlatformsLocked drops least-recently-used entries until the cache
// fits the cap and returns them. Callers must hold platMu.
func evictPlatformsLocked() []*platEntry {
	if platCap <= 0 {
		return nil
	}
	var evicted []*platEntry
	for platLRU.Len() > platCap {
		back := platLRU.Back()
		key := back.Value.(platformKey)
		evicted = append(evicted, platCache[key])
		delete(platCache, key)
		platLRU.Remove(back)
	}
	return evicted
}

// releasePlatforms drops the memoised influence matrix of each evicted,
// fully built platform, so a caller still holding one does not keep the
// matrix alive; a later InfluenceMatrix call refetches or recomputes it.
// A platform still being built is skipped: nothing is memoised yet.
func releasePlatforms(evicted []*platEntry) {
	for _, e := range evicted {
		if e.done.Load() && e.p != nil && e.p.Thermal != nil {
			e.p.Thermal.ReleaseInfluence()
		}
	}
}

// PlatformFor exposes the shared platform cache: the service layer and
// external tools reuse the same factored thermal networks the experiments
// run on, instead of factoring a fresh one per request.
func PlatformFor(node tech.Node, cores int) (*core.Platform, error) {
	return platformFor(node, cores)
}

// SetPlatformCacheCap bounds the platform cache to at most n entries
// (LRU eviction); n <= 0 removes the bound. The cache starts at
// DefaultPlatformCacheCap.
func SetPlatformCacheCap(n int) {
	platMu.Lock()
	platCap = n
	evicted := evictPlatformsLocked()
	platMu.Unlock()
	releasePlatforms(evicted)
}

// ResetPlatforms empties the platform cache. In-flight builds are
// unaffected (their entries stay valid for the callers holding them);
// subsequent calls rebuild. Tests use this to isolate cache state.
func ResetPlatforms() {
	platMu.Lock()
	defer platMu.Unlock()
	platCache = map[platformKey]*platEntry{}
	platLRU.Init()
}

// PlatformCacheLen reports the number of cached platforms.
func PlatformCacheLen() int {
	platMu.Lock()
	defer platMu.Unlock()
	return len(platCache)
}

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

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render(w io.Writer) error
}

// Tabler is implemented by every experiment result that can emit its
// rows as structured report.Tables in addition to rendering ASCII. The
// HTTP service marshals these tables as JSON, and `darksim -format json`
// prints them; chart-shaped figures emit their series as long-form
// tables. Every result in Registry and AblationRegistry implements it.
type Tabler interface {
	Tables() []*report.Table
}

// TablesOf extracts the structured tables of a result, reporting whether
// the result supports structured output.
func TablesOf(r Renderer) ([]*report.Table, bool) {
	t, ok := r.(Tabler)
	if !ok {
		return nil, false
	}
	return t.Tables(), true
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
// receives a context for cancellation; experiments without long sweeps
// may ignore it.
type Experiment struct {
	ID          string
	Description string
	Run         func(ctx context.Context) (Renderer, error)
}

// Registry lists all experiments in figure order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "ITRS scaling factors and derived per-node specs (Figure 1)", func(context.Context) (Renderer, error) { return Fig1() }},
		{"fig2", "Frequency vs voltage design space, Eq.(2) (Figure 2)", func(context.Context) (Renderer, error) { return Fig2() }},
		{"fig3", "Power model fit vs synthetic McPAT samples, x264 @22nm (Figure 3)", func(context.Context) (Renderer, error) { return Fig3() }},
		{"fig4", "Speed-up vs parallel threads (Figure 4)", func(context.Context) (Renderer, error) { return Fig4() }},
		{"fig5", "Dark silicon under optimistic/pessimistic TDP (Figure 5)", func(context.Context) (Renderer, error) { return Fig5() }},
		{"fig6", "TDP- vs temperature-constrained dark silicon (Figure 6)", func(context.Context) (Renderer, error) { return Fig6() }},
		{"fig7", "DVFS scenarios: performance and dark silicon (Figure 7)", func(context.Context) (Renderer, error) { return Fig7() }},
		{"fig8", "Dark silicon patterning vs contiguous mapping (Figure 8)", func(context.Context) (Renderer, error) { return Fig8() }},
		{"fig9", "TDPmap vs DsRem (Figure 9)", func(context.Context) (Renderer, error) { return Fig9() }},
		{"fig10", "Performance under TSP across nodes (Figure 10)", func(ctx context.Context) (Renderer, error) { return Fig10(ctx) }},
		{"fig11", "Boosting vs constant frequency transients (Figure 11)", func(ctx context.Context) (Renderer, error) { return Fig11(ctx, DefaultFig11Options()) }},
		{"fig12", "Boost/constant scaling with active cores (Figure 12)", func(ctx context.Context) (Renderer, error) { return Fig12(ctx, DefaultFig12Options()) }},
		{"fig13", "Boost/constant across applications @11nm (Figure 13)", func(ctx context.Context) (Renderer, error) { return Fig13(ctx, DefaultFig13Options()) }},
		{"fig14", "STC vs NTC performance and energy (Figure 14)", func(context.Context) (Renderer, error) { return Fig14() }},
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunWithDuration runs one registry entry, overriding the simulated
// duration of the transient experiments (fig11–fig13) when duration > 0.
// Non-transient experiments ignore the override. This is the shared entry
// point of the CLI's -duration flag and the bench harness's shortened
// per-figure runs.
func RunWithDuration(ctx context.Context, e Experiment, duration float64) (Renderer, error) {
	if duration > 0 {
		switch e.ID {
		case "fig11":
			return Fig11(ctx, Fig11Options{DurationS: duration})
		case "fig12":
			return Fig12(ctx, Fig12Options{DurationS: duration})
		case "fig13":
			return Fig13(ctx, Fig13Options{DurationS: duration})
		}
	}
	r, err := e.Run(ctx)
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
