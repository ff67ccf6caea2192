package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"weak"

	"darksim/internal/floorplan"
	"darksim/internal/linalg"
	"darksim/internal/runner"
)

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

// TestInfluenceBlockedFailureNamesColumn pins the error shape under
// band-sorted panels: the failure is injected at a block whose solve
// position differs from its index, and the error names the block index.
func TestInfluenceBlockedFailureNamesColumn(t *testing.T) {
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	m := model16(t)
	target := -1
	for pos, j := range m.influenceOrder() {
		if pos != j && pos >= linalg.PanelWidth {
			target = j
			break
		}
	}
	if target < 0 {
		t.Fatal("every block past the first panel is solved at its own index; the test cannot tell them apart")
	}
	boom := errors.New("injected solve failure")
	influenceSolveHook = func(col int) error {
		if col == target {
			return boom
		}
		return nil
	}
	_, err := m.InfluenceMatrix(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	if want := fmt.Sprintf("influence column %d:", target); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name block %d", err, target)
	}
}

// TestInfluenceCancelStopsWork verifies the context actually reaches the
// panel fan-out: cancelling mid-build must abort the remaining panels
// and surface context.Canceled, and a later call with a live context
// must recover.
func TestInfluenceCancelStopsWork(t *testing.T) {
	// Two workers over seven panels: the cancel lands in the first two
	// panels' hooks, so at most those two solve.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := model16(t)
	nb := m.NumBlocks()
	ResetInfluenceCache()
	defer func() { influenceSolveHook = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	influenceSolveHook = func(col int) error {
		if calls.Add(1) == 3 {
			cancel()
		}
		return nil
	}
	before := m.SolverStats().Solves
	_, err := m.InfluenceMatrix(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
	if solved := m.SolverStats().Solves - before; solved > 2*linalg.PanelWidth {
		t.Errorf("%d of %d columns solved despite cancellation, want at most two panels", solved, nb)
	}
	if n := calls.Load(); n >= int64(nb) {
		t.Errorf("the hook saw all %d columns despite cancellation", n)
	}
	influenceSolveHook = nil
	if _, err := m.InfluenceMatrix(context.Background()); err != nil {
		t.Fatalf("build after cancellation: %v", err)
	}
}

// TestInfluenceBlockedMatchesColumns pins the band-sorted panel build
// bitwise against a test-local loop that solves each unit-power column
// alone, in the original node order, at runner widths 1 and 2. The
// 10×10 platform has 100 blocks, so the last panel is partial.
func TestInfluenceBlockedMatchesColumns(t *testing.T) {
	m := model16(t)
	nb := m.NumBlocks()
	if nb%linalg.PanelWidth == 0 {
		t.Fatalf("%d blocks fill whole panels; the partial-panel path goes untested", nb)
	}
	ref := linalg.NewMatrix(nb, nb)
	rhs := linalg.NewVector(m.NumNodes())
	for j := 0; j < nb; j++ {
		rhs.Fill(0)
		for _, s := range m.blockCells[j] {
			rhs[s.node] = s.fraction
		}
		m.steady.env.SolveInPlace(rhs)
		for i, shares := range m.blockCells {
			var t float64
			for _, s := range shares {
				t += rhs[s.node] * s.weight
			}
			ref.Set(i, j, t)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		// Drop cached entries so every build is a real computation.
		ResetInfluenceCache()
		got, err := model16(t).InfluenceMatrix(context.Background())
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		for i := range ref.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("procs %d: influence differs at (%d, %d): %v vs %v",
					procs, i/nb, i%nb, got.Data[i], ref.Data[i])
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
	cold := model16(t)
	first, err := cold.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := InfluenceCacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after cold build: %+v", st)
	}

	if got := cold.SolverStats().Solves; got != 1+uint64(cold.NumBlocks()) {
		t.Errorf("cold build: %d solves, want the ambient solve plus one per block (%d)", got, 1+cold.NumBlocks())
	}

	warm := model16(t)
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
// (boundary conditions, floorplan) and pins that the compatibility field
// Config.Solver does not split it.
func TestInfluenceCacheKey(t *testing.T) {
	base := modelWithSolver(t, SolverSparse)
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
	infCache = runner.NewCache[uint64, *linalg.Matrix](capacity, 0, nil)
	t.Cleanup(func() { infCache = prev })
}

// TestInfluenceCacheEviction exercises the LRU bound and the disable
// switch.
func TestInfluenceCacheEviction(t *testing.T) {
	useInfluenceCache(t, 1)

	builds := []func(testing.TB) *Model{
		model16,
		func(t testing.TB) *Model {
			fp, err := floorplan.NewGrid(9, 9, 5.1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, 9, 9))
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for _, build := range builds {
		if _, err := build(t).InfluenceMatrix(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := InfluenceCacheStats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("cap-1 cache after two platforms: %+v", st)
	}
	// The first platform was evicted by the second: rebuilding it misses.
	if _, err := builds[0](t).InfluenceMatrix(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := InfluenceCacheStats(); st.Misses != 3 {
		t.Fatalf("evicted platform should miss: %+v", st)
	}

	// Cap 0 disables caching entirely.
	useInfluenceCache(t, 0)
	if _, err := builds[0](t).InfluenceMatrix(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := InfluenceCacheStats(); st.Entries != 0 {
		t.Fatalf("disabled cache stored an entry: %+v", st)
	}
}

// TestEvictedInfluenceNotPinnedByModel pins that the process-wide cache
// is the only holder of an influence matrix: once a second platform
// evicts it from a cap-1 cache, the collector reclaims it even while the
// model that built it is still live.
func TestEvictedInfluenceNotPinnedByModel(t *testing.T) {
	useInfluenceCache(t, 1)
	held := model16(t)
	wp := func() weak.Pointer[linalg.Matrix] {
		mat, err := held.InfluenceMatrix(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(mat)
	}()
	fp, err := floorplan.NewGrid(9, 9, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, 9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.InfluenceMatrix(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Errorf("the held model still pins its evicted influence matrix")
	}
	runtime.KeepAlive(held)
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
