package thermal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"darksim/internal/floorplan"
	"darksim/internal/linalg"
	"darksim/internal/runner"
)

// sparseModelWithPanel builds the 100-core platform with the
// compatibility fields Solver = SolverSparse and the given InfluencePanel,
// both of which select nothing.
func sparseModelWithPanel(t testing.TB, panel int) *Model {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fp.DieW, fp.DieH, 10, 10)
	cfg.Solver = SolverSparse
	cfg.InfluencePanel = panel
	m, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInfluenceRetryAfterFailure is the regression test for the old
// sync.Once poisoning: a transient solve failure must not be memoized —
// the next InfluenceMatrix call retries and succeeds.
func TestInfluenceRetryAfterFailure(t *testing.T) {
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	m := model16(t)
	boom := errors.New("injected solve failure")
	influenceSolveHook = func(col int) error {
		if col == 7 {
			return boom
		}
		return nil
	}
	_, err := m.InfluenceMatrix(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "influence column 7") {
		t.Errorf("error %q does not name the failing column", err)
	}
	// The failure must not have been cached anywhere.
	if st := InfluenceCacheStats(); st.Entries != 0 {
		t.Fatalf("failed computation landed in the cache: %+v", st)
	}
	influenceSolveHook = nil
	inf, err := m.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if inf == nil || inf.Rows != 100 {
		t.Fatalf("retry returned bad matrix %v", inf)
	}
}

// TestInfluenceBlockedFailureNamesColumn pins the error shape under an
// InfluencePanel setting that once selected the blocked fan-out: the
// reported column is the original (global) column index.
func TestInfluenceBlockedFailureNamesColumn(t *testing.T) {
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	m := sparseModelWithPanel(t, 8)
	boom := errors.New("injected solve failure")
	influenceSolveHook = func(col int) error {
		if col == 42 {
			return boom
		}
		return nil
	}
	_, err := m.InfluenceMatrix(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "influence column 42") {
		t.Errorf("error %q does not name global column 42", err)
	}
}

// TestInfluenceCancelStopsWork verifies the context actually reaches the
// column fan-out: cancelling mid-build must abort the remaining columns
// and surface context.Canceled, and a later call with a live context
// must recover.
func TestInfluenceCancelStopsWork(t *testing.T) {
	if runtime.NumCPU() >= 100 {
		t.Skip("worker pool as wide as the column count; cancellation cannot save work")
	}
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	m := sparseModelWithPanel(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	influenceSolveHook = func(col int) error {
		if calls.Add(1) == 3 {
			cancel()
		}
		return nil
	}
	_, err := m.InfluenceMatrix(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	if n := calls.Load(); n >= 100 {
		t.Errorf("all %d columns solved despite cancellation", n)
	}
	influenceSolveHook = nil
	if _, err := m.InfluenceMatrix(context.Background()); err != nil {
		t.Fatalf("build after cancellation: %v", err)
	}
}

// TestInfluenceBlockedMatchesColumns pins the influence matrix bitwise
// across everything that once changed how its columns were solved: the
// InfluencePanel values that selected the per-column (1) and blocked
// (2, 16, 200) CG fan-outs, and runner widths 1 and GOMAXPROCS. Every
// column goes through the same envelope sweep, so none of these may move
// a bit — which is what lets the cache key ignore them.
func TestInfluenceBlockedMatchesColumns(t *testing.T) {
	widths := []int{1, runtime.GOMAXPROCS(0)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *linalg.Matrix
	for _, procs := range widths {
		runtime.GOMAXPROCS(procs)
		for _, panel := range []int{1, 2, 16, 200} {
			// Drop cached entries so every build is a real computation.
			ResetInfluenceCache()
			got, err := sparseModelWithPanel(t, panel).InfluenceMatrix(context.Background())
			if err != nil {
				t.Fatalf("procs %d panel %d: %v", procs, panel, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			for i := range ref.Data {
				if got.Data[i] != ref.Data[i] {
					t.Fatalf("procs %d panel %d: influence differs at %d: %v vs %v",
						procs, panel, i, got.Data[i], ref.Data[i])
				}
			}
		}
	}
	ResetInfluenceCache()
}

// TestInfluenceWarmPathZeroSolves is the cache contract `make check`
// relies on: a second model of an identical platform takes the influence
// matrix from the process-wide cache without a single linear solve.
func TestInfluenceWarmPathZeroSolves(t *testing.T) {
	ResetInfluenceCache()
	cold := sparseModelWithPanel(t, 0)
	first, err := cold.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := InfluenceCacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after cold build: %+v", st)
	}

	warm := sparseModelWithPanel(t, 0)
	before := warm.SolverStats().Solves
	second, err := warm.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("warm model did not receive the cached matrix")
	}
	if after := warm.SolverStats().Solves; after != before {
		t.Errorf("warm influence path performed %d solves, want 0", after-before)
	}
	if st := InfluenceCacheStats(); st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1 (%+v)", st.Hits, st)
	}
}

// TestInfluenceCacheKey checks the content hash separates what it must
// (boundary conditions, floorplan) and pins that the compatibility fields
// Config.Solver and Config.InfluencePanel no longer split it.
func TestInfluenceCacheKey(t *testing.T) {
	base := sparseModelWithPanel(t, 0)
	for _, panel := range []int{1, 4, 16} {
		if base.influenceKey() != sparseModelWithPanel(t, panel).influenceKey() {
			t.Errorf("InfluencePanel %d changed the cache key", panel)
		}
	}
	for _, kind := range []SolverKind{SolverAuto, SolverDense} {
		if base.influenceKey() != modelWithSolver(t, kind).influenceKey() {
			t.Errorf("Solver %v changed the cache key", kind)
		}
	}
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	hot := DefaultConfig(fp.DieW, fp.DieH, 10, 10)
	hot.Solver = SolverSparse
	hot.AmbientC += 1
	mh, err := NewModel(fp, hot)
	if err != nil {
		t.Fatal(err)
	}
	if base.influenceKey() == mh.influenceKey() {
		t.Errorf("ambient temperature does not separate cache keys")
	}
	small, err := floorplan.NewGrid(9, 9, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	scfg := DefaultConfig(small.DieW, small.DieH, 9, 9)
	scfg.Solver = SolverSparse
	ms, err := NewModel(small, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.influenceKey() == ms.influenceKey() {
		t.Errorf("floorplan does not separate cache keys")
	}
}

// useInfluenceCache swaps in an empty process-wide influence cache of
// the given capacity for the rest of the test.
func useInfluenceCache(t *testing.T, capacity int) {
	prev := infCache
	infCache = runner.NewCache[uint64, *linalg.Matrix](capacity, 0, nil, nil)
	t.Cleanup(func() { infCache = prev })
}

// TestInfluenceCacheEviction exercises the LRU bound and the disable
// switch.
func TestInfluenceCacheEviction(t *testing.T) {
	useInfluenceCache(t, 1)

	builds := []func(testing.TB, int) *Model{
		sparseModelWithPanel,
		func(t testing.TB, panel int) *Model {
			fp, err := floorplan.NewGrid(9, 9, 5.1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(fp.DieW, fp.DieH, 9, 9)
			cfg.Solver = SolverSparse
			cfg.InfluencePanel = panel
			m, err := NewModel(fp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for _, build := range builds {
		if _, err := build(t, 0).InfluenceMatrix(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := InfluenceCacheStats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("cap-1 cache after two platforms: %+v", st)
	}
	// The first platform was evicted by the second: rebuilding it misses.
	if _, err := builds[0](t, 0).InfluenceMatrix(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := InfluenceCacheStats(); st.Misses != 3 {
		t.Fatalf("evicted platform should miss: %+v", st)
	}

	// Cap 0 disables caching entirely.
	useInfluenceCache(t, 0)
	if _, err := builds[0](t, 0).InfluenceMatrix(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := InfluenceCacheStats(); st.Entries != 0 {
		t.Fatalf("disabled cache stored an entry: %+v", st)
	}
}

func TestInfluencePanelValidate(t *testing.T) {
	cfg := DefaultConfig(0.02, 0.02, 4, 4)
	cfg.InfluencePanel = -1
	if err := cfg.Validate(); err == nil {
		t.Errorf("negative panel width should fail validation")
	}
	for _, p := range []int{0, 1, 16} {
		cfg.InfluencePanel = p
		if err := cfg.Validate(); err != nil {
			t.Errorf("panel width %d rejected: %v", p, err)
		}
	}
}

// ExampleInfluenceCacheStats documents the warm-path contract.
func ExampleInfluenceCacheStats() {
	ResetInfluenceCache()
	fp, _ := floorplan.NewGrid(4, 4, 5.1)
	cfg := DefaultConfig(fp.DieW, fp.DieH, 4, 4)
	for i := 0; i < 2; i++ {
		m, _ := NewModel(fp, cfg)
		m.InfluenceMatrix(context.Background())
	}
	st := InfluenceCacheStats()
	fmt.Printf("hits=%d misses=%d entries=%d\n", st.Hits, st.Misses, st.Entries)
	// Output: hits=1 misses=1 entries=1
}
