package thermal

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"darksim/internal/linalg"
	"darksim/internal/runner"
)

// influenceCacheCap bounds the process-wide influence cache. An
// influence matrix is nb×nb float64s (8 MB at 1024 cores), so a handful
// of entries covers every platform a bench run or service instance
// cycles through without unbounded growth.
const influenceCacheCap = 8

// influenceSolveHook, when non-nil, is invoked once per influence column
// before its solve and may inject a failure or observe progress. It
// exists for tests (retry-after-failure, cancellation) and must stay nil
// in production code.
var influenceSolveHook func(col int) error

// CacheStats is a snapshot of the process-wide influence cache.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// infCache is the process-wide influence cache. The influence matrix is
// a pure function of the stack configuration and the floorplan geometry,
// so models built from equal platforms — a service request, a CLI figure
// and a bench iteration — share one computation keyed by content hash.
// Entries are immutable matrices; eviction is LRU.
var infCache = runner.NewCache[uint64, *linalg.Matrix](influenceCacheCap, 0, nil, nil)

// ResetInfluenceCache drops every cached influence matrix and zeroes the
// hit/miss counters. Benchmarks use it to measure cold builds honestly.
func ResetInfluenceCache() { infCache.Reset() }

// InfluenceCacheStats snapshots the process-wide influence cache
// counters; the warm-path assertion in `make check` relies on Hits
// moving while the model's solve counter does not.
func InfluenceCacheStats() CacheStats {
	st := infCache.Stats()
	return CacheStats{Hits: uint64(st.Hits), Misses: uint64(st.Misses), Entries: st.Entries}
}

// influenceKey content-hashes everything the influence matrix depends
// on: the layer stack, the boundary conditions and the floorplan
// geometry. There is one solve path, so Config.Solver and
// Config.InfluencePanel are deliberately excluded: they cannot change a
// bit of the matrix. FNV-64a keeps the key dependency-free; the input is
// structured (length-prefixed fields), not attacker-controlled.
func (m *Model) influenceKey() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	wi := func(v int) { w64(uint64(int64(v))) }

	wi(len(m.cfg.Layers))
	for _, l := range m.cfg.Layers {
		wf(l.Thickness)
		wf(l.Material.Conductivity)
		wf(l.Material.VolumetricHeat)
		wf(l.W)
		wf(l.H)
		wi(l.Nx)
		wi(l.Ny)
	}
	wf(m.cfg.ConvectionR)
	wf(m.cfg.ConvectionC)
	wf(m.cfg.AmbientC)
	wf(m.fp.DieW)
	wf(m.fp.DieH)
	wi(len(m.fp.Blocks))
	for _, b := range m.fp.Blocks {
		wf(b.X)
		wf(b.Y)
		wf(b.W)
		wf(b.H)
	}
	return h.Sum64()
}

// InfluenceMatrix returns the block×block matrix B with B[i][j] = steady-
// state temperature rise of block i per watt in block j (K/W). By
// linearity, T = B·P + Tambient-field, which is the foundation of the
// TSP computation.
//
// Lookup order: the model's own memo, then the process-wide cache (so a
// freshly constructed model for an already-seen platform pays nothing),
// then a parallel computation of the columns. A failed computation is NOT
// memoized: the next call retries, so a transient failure cannot poison
// the model. The context cancels the column fan-out.
func (m *Model) InfluenceMatrix(ctx context.Context) (*linalg.Matrix, error) {
	if mat := m.influence.Load(); mat != nil {
		return mat, nil
	}
	m.infMu.Lock()
	defer m.infMu.Unlock()
	if mat := m.influence.Load(); mat != nil {
		return mat, nil
	}
	if !m.infKeyed {
		m.infKey = m.influenceKey()
		m.infKeyed = true
	}
	if mat, ok := infCache.Get(m.infKey); ok {
		m.influence.Store(mat)
		return mat, nil
	}
	mat, err := m.computeInfluence(ctx)
	if err != nil {
		return nil, err
	}
	m.influence.Store(mat)
	infCache.Put(m.infKey, mat)
	return mat, nil
}

// ReleaseInfluence drops the model's memoised influence matrix without
// waiting for a computation in progress, so an evicted platform does not
// pin it. A later InfluenceMatrix call takes it from the process-wide
// cache or recomputes it.
func (m *Model) ReleaseInfluence() { m.influence.Store(nil) }

// computeInfluence builds the influence matrix. Columns are independent
// solves against the shared immutable steady-state factor and run in
// parallel on the runner pool; every column goes through the same
// envelope sweep, so the matrix is bit-identical at any runner width.
func (m *Model) computeInfluence(ctx context.Context) (*linalg.Matrix, error) {
	inf := linalg.NewMatrix(len(m.blockCells), len(m.blockCells))
	if err := m.influenceColumns(ctx, inf); err != nil {
		return nil, err
	}
	return inf, nil
}

// fillColumnRHS writes the unit-power node loading of block j into rhs.
func (m *Model) fillColumnRHS(rhs linalg.Vector, j int) {
	rhs.Fill(0)
	for _, s := range m.blockCells[j] {
		rhs[s.node] = s.fraction
	}
}

// readColumn reduces the solved node field of column j to per-block
// readout temperatures.
func (m *Model) readColumn(inf *linalg.Matrix, nodeT linalg.Vector, j int) {
	for i := 0; i < inf.Rows; i++ {
		var t float64
		for _, s := range m.blockCells[i] {
			t += nodeT[s.node] * s.weight
		}
		inf.Set(i, j, t)
	}
}

// influenceColumns is the one-RHS-at-a-time fan-out: each runner item
// solves a single column. RHS buffers are recycled across solves; the
// Put is deferred so an errored solve cannot leak its buffer.
func (m *Model) influenceColumns(ctx context.Context, inf *linalg.Matrix) error {
	nb := len(m.blockCells)
	var rhsPool sync.Pool
	rhsPool.New = func() any {
		v := linalg.NewVector(len(m.cells))
		return &v
	}
	_, err := runner.MapN(ctx, nb, runner.Options{}, func(ctx context.Context, j int) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			return struct{}{}, err
		}
		if h := influenceSolveHook; h != nil {
			if err := h(j); err != nil {
				return struct{}{}, fmt.Errorf("influence column %d: %w", j, err)
			}
		}
		vp := rhsPool.Get().(*linalg.Vector)
		defer rhsPool.Put(vp)
		rhs := *vp
		m.fillColumnRHS(rhs, j)
		m.steady.solveInPlace(rhs)
		m.readColumn(inf, rhs, j)
		return struct{}{}, nil
	})
	return err
}
