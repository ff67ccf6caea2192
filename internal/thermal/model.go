package thermal

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"darksim/internal/floorplan"
	"darksim/internal/linalg"
)

// cell is one RC node of the discretized stack.
type cell struct {
	layer int
	x, y  float64 // lower-left corner, chip-centred coordinates (m)
	w, h  float64
	capJK float64 // thermal capacitance in J/K
	gAmbW float64 // direct conductance to ambient in W/K (sink cells)
}

// Model is a compact RC thermal model bound to one floorplan.
type Model struct {
	cfg    Config
	fp     *floorplan.Floorplan
	cells  []cell
	layers [][]int // node indices per layer

	// gs is the symmetric conductance matrix in CSR form, including
	// ambient coupling on the diagonal; steady state solves
	// gs·T = P + gAmb·Tamb. It is the only stored form of the matrix —
	// the dense n×n representation is never materialized on the sparse
	// path, which is what lets the model scale to thousands of cores
	// with O(nnz) assembly memory.
	gs     *linalg.CSR
	ambRHS linalg.Vector // gAmb·Tamb per node

	// order is the profile-reducing ordering of gs, computed once: the
	// steady factor and every per-dt transient factor share it, since
	// (C/dt + G) has the sparsity of G.
	order []int

	// steady is the factored steady-state system behind the solver seam.
	steady   *factor
	counters solveCounters

	// ambNodes is the zero-power steady state (≈ ambient everywhere),
	// solved once at construction; it seeds transients and AmbientField.
	ambNodes linalg.Vector

	// blockCells[b] lists (node, fraction) pairs distributing block b's
	// power over die cells; fractions sum to 1.
	blockCells [][]cellShare

	// influence is the lazily computed block×block matrix of steady
	// state dT_i/dP_j in K/W (see influence.go); ReleaseInfluence may
	// drop it at any time, hence the atomic. infMu serializes the
	// computation; a failed computation is never memoized, so callers
	// retry naturally. infKey memoizes the platform content hash used to
	// look the matrix up in the process-wide cache.
	influence atomic.Pointer[linalg.Matrix]
	infMu     sync.Mutex
	infKey    uint64
	infKeyed  bool

	// transFacs caches the factored implicit-Euler system per step size
	// so repeated transients over one model (Fig11–13's sweeps) factor
	// each dt exactly once.
	transMu   sync.Mutex
	transFacs map[float64]*transFactor
}

// transFactor bundles the per-dt transient system: the factored
// (C/dt + G) matrix and the C/dt diagonal.
type transFactor struct {
	fac   *factor
	capDt linalg.Vector
}

type cellShare struct {
	node     int
	fraction float64 // of the block's power into this cell
	weight   float64 // of this cell in the block's readout temperature
}

// NewModel discretizes the stack, assembles the conductance matrix
// directly in sparse form, computes its profile ordering and factors it.
func NewModel(fp *floorplan.Floorplan, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, fp: fp, transFacs: make(map[float64]*transFactor)}
	m.buildCells()
	m.buildConductances()
	if err := m.bindFloorplan(); err != nil {
		return nil, err
	}
	m.order = linalg.ProfileOrder(m.gs)
	fac, err := newFactor(m.gs, m.order, &m.counters)
	if err != nil {
		return nil, fmt.Errorf("thermal: conductance matrix not SPD (disconnected node?): %w", err)
	}
	m.steady = fac
	// Solve the zero-power steady state once; it seeds transients and
	// AmbientField.
	m.ambNodes = m.ambRHS.Clone()
	m.steady.solveInPlace(m.ambNodes)
	return m, nil
}

// SolverStats snapshots the linear-solver work performed so far by this
// model and its transients.
func (m *Model) SolverStats() SolverStats {
	return SolverStats{Path: solverPath, Solves: m.counters.solves.Load()}
}

func (m *Model) buildCells() {
	m.layers = make([][]int, len(m.cfg.Layers))
	// Count sink cells first so the convection capacitance can be
	// distributed over them.
	sinkLayer := len(m.cfg.Layers) - 1
	sinkCells := m.cfg.Layers[sinkLayer].Nx * m.cfg.Layers[sinkLayer].Ny
	for li, l := range m.cfg.Layers {
		cw, ch := l.W/float64(l.Nx), l.H/float64(l.Ny)
		for iy := 0; iy < l.Ny; iy++ {
			for ix := 0; ix < l.Nx; ix++ {
				c := cell{
					layer: li,
					x:     -l.W/2 + float64(ix)*cw,
					y:     -l.H/2 + float64(iy)*ch,
					w:     cw,
					h:     ch,
					capJK: l.Material.VolumetricHeat * l.Thickness * cw * ch,
				}
				if li == sinkLayer {
					area := cw * ch
					total := l.W * l.H
					c.gAmbW = (1 / m.cfg.ConvectionR) * area / total
					c.capJK += m.cfg.ConvectionC / float64(sinkCells)
				}
				m.layers[li] = append(m.layers[li], len(m.cells))
				m.cells = append(m.cells, c)
			}
		}
	}
}

// buildConductances assembles the conductance matrix directly into CSR
// form. The RC grid couples each node to at most itself, four lateral
// neighbours and the overlapping cells of the layers above and below, so
// assembly is O(nnz): the vertical coupling enumerates only the lower-
// grid cells whose index range can overlap each upper cell instead of
// scanning the full cross product.
func (m *Model) buildConductances() {
	n := len(m.cells)
	b := linalg.NewCSRBuilder(n)
	m.ambRHS = linalg.NewVector(n)

	addPair := func(i, j int, g float64) {
		if g <= 0 {
			return
		}
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.Add(i, j, -g)
		b.Add(j, i, -g)
	}

	// Lateral conductances inside each layer (4-neighbour grid).
	for li, l := range m.cfg.Layers {
		idx := m.layers[li]
		at := func(ix, iy int) int { return idx[iy*l.Nx+ix] }
		cw, ch := l.W/float64(l.Nx), l.H/float64(l.Ny)
		k, t := l.Material.Conductivity, l.Thickness
		for iy := 0; iy < l.Ny; iy++ {
			for ix := 0; ix < l.Nx; ix++ {
				if ix+1 < l.Nx {
					// Shared edge length ch, centre distance cw.
					addPair(at(ix, iy), at(ix+1, iy), k*t*ch/cw)
				}
				if iy+1 < l.Ny {
					addPair(at(ix, iy), at(ix, iy+1), k*t*cw/ch)
				}
			}
		}
	}

	// Vertical conductances between consecutive layers, coupling cells
	// by their area overlap through the two half-thickness resistances.
	for li := 0; li+1 < len(m.cfg.Layers); li++ {
		upper, lower := m.cfg.Layers[li], m.cfg.Layers[li+1]
		rPerArea := upper.Thickness/(2*upper.Material.Conductivity) +
			lower.Thickness/(2*lower.Material.Conductivity)
		lw, lh := lower.W/float64(lower.Nx), lower.H/float64(lower.Ny)
		lowIdx := m.layers[li+1]
		for _, ui := range m.layers[li] {
			uc := m.cells[ui]
			// Candidate lower-grid window covering the upper cell,
			// padded by one cell against floating-point edge cases;
			// cells outside it have zero overlap by construction.
			ix0 := clampGrid(int(math.Floor((uc.x+lower.W/2)/lw))-1, lower.Nx)
			ix1 := clampGrid(int(math.Floor((uc.x+uc.w+lower.W/2)/lw))+1, lower.Nx)
			iy0 := clampGrid(int(math.Floor((uc.y+lower.H/2)/lh))-1, lower.Ny)
			iy1 := clampGrid(int(math.Floor((uc.y+uc.h+lower.H/2)/lh))+1, lower.Ny)
			for iy := iy0; iy <= iy1; iy++ {
				for ix := ix0; ix <= ix1; ix++ {
					wi := lowIdx[iy*lower.Nx+ix]
					ov := overlap(uc, m.cells[wi])
					if ov <= 0 {
						continue
					}
					addPair(ui, wi, ov/rPerArea)
				}
			}
		}
	}

	// Ambient coupling: diagonal term plus RHS contribution.
	for i, c := range m.cells {
		if c.gAmbW > 0 {
			b.Add(i, i, c.gAmbW)
			m.ambRHS[i] = c.gAmbW * m.cfg.AmbientC
		}
	}
	m.gs = b.Build()
}

// clampGrid clamps a grid index into [0, n).
func clampGrid(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// overlap returns the overlapping area of two cells in m².
func overlap(a, b cell) float64 {
	w := min(a.x+a.w, b.x+b.w) - max(a.x, b.x)
	h := min(a.y+a.h, b.y+b.h) - max(a.y, b.y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// bindFloorplan maps floorplan blocks onto die-layer cells.
func (m *Model) bindFloorplan() error {
	die := m.cfg.Layers[0]
	// The floorplan uses lower-left-origin coordinates; the stack is
	// chip-centred. Centre the floorplan's bounding box on the die.
	offX := -m.fp.DieW / 2
	offY := -m.fp.DieH / 2
	if m.fp.DieW > die.W+1e-9 || m.fp.DieH > die.H+1e-9 {
		return fmt.Errorf("%w: floorplan (%.4f x %.4f m) larger than die layer (%.4f x %.4f m)",
			ErrConfig, m.fp.DieW, m.fp.DieH, die.W, die.H)
	}
	m.blockCells = make([][]cellShare, len(m.fp.Blocks))
	cw, ch := die.W/float64(die.Nx), die.H/float64(die.Ny)
	for bi, b := range m.fp.Blocks {
		bc := cell{x: b.X + offX, y: b.Y + offY, w: b.W, h: b.H}
		// Only the die cells under the block's window (padded by one
		// cell against floating-point edge cases) can overlap it; they
		// are visited in the same row-major order as the full grid, so
		// the shares and their sum do not depend on the window.
		ix0 := clampGrid(int(math.Floor((bc.x+die.W/2)/cw))-1, die.Nx)
		ix1 := clampGrid(int(math.Floor((bc.x+bc.w+die.W/2)/cw))+1, die.Nx)
		iy0 := clampGrid(int(math.Floor((bc.y+die.H/2)/ch))-1, die.Ny)
		iy1 := clampGrid(int(math.Floor((bc.y+bc.h+die.H/2)/ch))+1, die.Ny)
		var total float64
		var shares []cellShare
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				ci := m.layers[0][iy*die.Nx+ix]
				ov := overlap(bc, m.cells[ci])
				if ov <= 0 {
					continue
				}
				shares = append(shares, cellShare{node: ci, fraction: ov})
				total += ov
			}
		}
		if total <= 0 {
			return fmt.Errorf("%w: block %q does not overlap the die grid", ErrConfig, b.Name)
		}
		for i := range shares {
			shares[i].fraction /= total
			shares[i].weight = shares[i].fraction
		}
		m.blockCells[bi] = shares
	}
	return nil
}

// NumNodes returns the number of RC nodes in the model.
func (m *Model) NumNodes() int { return len(m.cells) }

// NumBlocks returns the number of floorplan blocks (cores).
func (m *Model) NumBlocks() int { return len(m.fp.Blocks) }

// Ambient returns the configured ambient temperature in °C.
func (m *Model) Ambient() float64 { return m.cfg.AmbientC }

// Floorplan returns the bound floorplan.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// Conductances returns the assembled conductance matrix in CSR form.
// The matrix is shared and must not be mutated.
func (m *Model) Conductances() *linalg.CSR { return m.gs }

// nodePower expands per-block power into per-node power.
func (m *Model) nodePower(blockPower []float64) (linalg.Vector, error) {
	p := linalg.NewVector(len(m.cells))
	if err := m.nodePowerInto(p, blockPower); err != nil {
		return nil, err
	}
	return p, nil
}

// PowerError reports a block power the thermal seam rejects: negative,
// NaN or infinite. It wraps ErrConfig, so a NaN power map ends in a typed
// error instead of NaN temperatures.
type PowerError struct {
	Block int     // floorplan block index
	Watts float64 // the rejected value
}

// Error implements the error interface.
func (e *PowerError) Error() string {
	if e.Watts < 0 {
		return fmt.Sprintf("%v: negative power %g W for block %d", ErrConfig, e.Watts, e.Block)
	}
	return fmt.Sprintf("%v: non-finite power %g W for block %d", ErrConfig, e.Watts, e.Block)
}

// Unwrap returns ErrConfig.
func (e *PowerError) Unwrap() error { return ErrConfig }

// nodePowerInto expands per-block power into per-node power without
// allocating; dst must have NumNodes length and is overwritten. Every
// solve entry point (SteadyState, Transient.Step, MacroStep and
// AdvanceQuiet, TransientBatch.StepAll) expands power here, so this is where negative,
// NaN and infinite powers are rejected with a *PowerError.
func (m *Model) nodePowerInto(dst linalg.Vector, blockPower []float64) error {
	if len(blockPower) != len(m.blockCells) {
		return fmt.Errorf("thermal: power vector length %d, want %d", len(blockPower), len(m.blockCells))
	}
	dst.Fill(0)
	for bi, shares := range m.blockCells {
		pw := blockPower[bi]
		if !(pw >= 0) || math.IsInf(pw, 1) {
			return &PowerError{Block: bi, Watts: pw}
		}
		for _, s := range shares {
			dst[s.node] += pw * s.fraction
		}
	}
	return nil
}

// blockTemps reduces node temperatures to per-block temperatures.
func (m *Model) blockTemps(nodeT linalg.Vector) []float64 {
	out := make([]float64, len(m.blockCells))
	m.blockTempsInto(out, nodeT)
	return out
}

// blockTempsInto reduces node temperatures into a caller-provided
// per-block slice of NumBlocks length.
func (m *Model) blockTempsInto(out []float64, nodeT linalg.Vector) {
	for bi, shares := range m.blockCells {
		var t float64
		for _, s := range shares {
			t += nodeT[s.node] * s.weight
		}
		out[bi] = t
	}
}

// SteadyState returns the steady-state temperature of every floorplan
// block (°C) for the given per-block power map (W).
func (m *Model) SteadyState(blockPower []float64) ([]float64, error) {
	nodeT, err := m.SteadyStateNodes(blockPower)
	if err != nil {
		return nil, err
	}
	return m.blockTemps(nodeT), nil
}

// SteadyStateNodes returns the steady-state temperature of every RC node.
func (m *Model) SteadyStateNodes(blockPower []float64) (linalg.Vector, error) {
	p, err := m.nodePower(blockPower)
	if err != nil {
		return nil, err
	}
	p.AddScaled(1, m.ambRHS)
	m.steady.solveInPlace(p)
	return p, nil
}

// PeakSteadyState returns the maximum block temperature and its index.
func (m *Model) PeakSteadyState(blockPower []float64) (float64, int, error) {
	t, err := m.SteadyState(blockPower)
	if err != nil {
		return 0, -1, err
	}
	peak, at := linalg.Vector(t).Max()
	return peak, at, nil
}

// AmbientField returns the per-block steady-state temperature with zero
// power everywhere: the baseline each block sits at (≈ ambient). It is
// solved once at construction and reused.
func (m *Model) AmbientField() []float64 {
	return m.blockTemps(m.ambNodes)
}

// transientFactor returns (building and caching on first use) the
// factored implicit-Euler system for step size dt. The cache makes
// repeated transients over one model — a sweep of boosting runs, or
// several app instances sharing a cached platform — factor each dt once.
func (m *Model) transientFactor(dt float64) (*transFactor, error) {
	m.transMu.Lock()
	defer m.transMu.Unlock()
	if tf, ok := m.transFacs[dt]; ok {
		return tf, nil
	}
	n := len(m.cells)
	capDt := linalg.NewVector(n)
	for i, c := range m.cells {
		capDt[i] = c.capJK / dt
	}
	a, err := m.gs.AddDiagonal(capDt)
	if err != nil {
		return nil, err
	}
	fac, err := newFactor(a, m.order, &m.counters)
	if err != nil {
		return nil, fmt.Errorf("thermal: transient matrix not SPD: %w", err)
	}
	tf := &transFactor{fac: fac, capDt: capDt}
	m.transFacs[dt] = tf
	return tf, nil
}
