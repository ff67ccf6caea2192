package thermal

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"darksim/internal/linalg"
	"darksim/internal/runner"
)

// influenceCacheCap bounds the process-wide influence cache, the only
// holder of influence matrices: a model keeps no copy, so this cap is
// the bound on resident matrices (nb×nb float64s, 8 MiB at 1024 cores).
// It equals experiments.DefaultPlatformCacheCap so every warm platform's
// matrix fits; at 8 the warm set of a mixed TSP and scenario load
// thrashes and every eviction is a full rebuild.
const influenceCacheCap = 32

// influenceSolveHook, when non-nil, is invoked once per influence column
// (with the block index) before that column's panel solves and may
// inject a failure or observe progress. It exists for tests
// (retry-after-failure, cancellation) and must stay nil in production
// code.
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
var infCache = runner.NewCache[uint64, *linalg.Matrix](influenceCacheCap, 0, nil)

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
// geometry. There is one solve path, so Config.Solver is deliberately
// excluded: it cannot change a bit of the matrix. FNV-64a keeps the key
// dependency-free; the input is structured (length-prefixed fields), not
// attacker-controlled.
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
// The process-wide cache is the matrix's only holder: a model built from
// an already-seen platform pays nothing, and a model whose entry was
// evicted computes the columns again, in parallel. The build runs on the
// caller's context, so a cancel stops the column fan-out (Cache.Do would
// detach it). A failed computation is NOT stored: the next call retries,
// so a transient failure cannot poison the model.
func (m *Model) InfluenceMatrix(ctx context.Context) (*linalg.Matrix, error) {
	m.infMu.Lock()
	defer m.infMu.Unlock()
	if mat, ok := infCache.Get(m.infKey); ok {
		return mat, nil
	}
	mat, err := m.computeInfluence(ctx)
	if err != nil {
		return nil, err
	}
	infCache.Put(m.infKey, mat)
	return mat, nil
}

// computeInfluence builds the influence matrix. Columns are solves
// against the shared immutable steady-state factor, batched into panels
// that run in parallel on the runner pool; every column goes through the
// same envelope sweep, so the matrix is bit-identical at any runner
// width and equal to solving each column alone.
func (m *Model) computeInfluence(ctx context.Context) (*linalg.Matrix, error) {
	inf := linalg.NewMatrix(len(m.blockCells), len(m.blockCells))
	if err := m.influenceColumns(ctx, inf); err != nil {
		return nil, err
	}
	return inf, nil
}

// influenceOrder returns the block indices in the order their columns
// are solved: by the first band row any of the block's cells occupies
// under the steady factor's ordering, ties by index. A unit-power column
// is zero above that row, so a panel of neighbours in this order starts
// its forward sweep at its first block's row.
func (m *Model) influenceOrder() []int {
	first := make([]int, len(m.blockCells))
	order := make([]int, len(m.blockCells))
	for b, shares := range m.blockCells {
		first[b] = len(m.cells)
		for _, s := range shares {
			first[b] = min(first[b], m.steady.env.BandRow(s.node))
		}
		order[b] = b
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(first[a], first[b]) })
	return order
}

// influenceColumns solves the unit-power columns in panels of
// linalg.PanelWidth blocks taken in influenceOrder; each runner item
// solves one panel through one batched sweep. The panels are built and
// read in the factor's band order, so the solve needs no permutation
// copies. Each panel allocates its own buffer and drops it when done:
// a sync.Pool here stays registered process-wide for two GC cycles
// after the build and its New closure pins the model; dropping the pool
// lowered perfbench's queries live-heap peak by about 7 MiB.
func (m *Model) influenceColumns(ctx context.Context, inf *linalg.Matrix) error {
	order := m.influenceOrder()
	env := m.steady.env
	panels := (len(order) + linalg.PanelWidth - 1) / linalg.PanelWidth
	_, err := runner.MapN(ctx, panels, runner.Options{}, func(ctx context.Context, p int) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			return struct{}{}, err
		}
		blocks := order[p*linalg.PanelWidth : min((p+1)*linalg.PanelWidth, len(order))]
		if h := influenceSolveHook; h != nil {
			for _, j := range blocks {
				if err := h(j); err != nil {
					return struct{}{}, fmt.Errorf("influence column %d: %w", j, err)
				}
			}
		}
		n := len(m.cells)
		buf := make([]float64, len(blocks)*n)
		ys := make([]linalg.Vector, len(blocks))
		for c, j := range blocks {
			// Block j's unit power, spread over its cells.
			ys[c] = buf[c*n : (c+1)*n]
			for _, s := range m.blockCells[j] {
				ys[c][env.BandRow(s.node)] = s.fraction
			}
		}
		if err := m.steady.solveBand(ys); err != nil {
			return struct{}{}, err
		}
		for c, j := range blocks {
			// Reduce the node field to per-block readout temperatures.
			for i, shares := range m.blockCells {
				var t float64
				for _, s := range shares {
					t += ys[c][env.BandRow(s.node)] * s.weight
				}
				inf.Set(i, j, t)
			}
		}
		return struct{}{}, nil
	})
	return err
}
