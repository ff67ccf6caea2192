package thermal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darksim/internal/floorplan"
	"darksim/internal/linalg"
	"darksim/internal/tech"
)

// model16 builds the standard 100-core 16 nm platform model (5.1 mm²
// cores) used by most tests.
func model16(t testing.TB) *Model {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(0.02, 0.02, 4, 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Layers = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("no layers should error")
	}
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[0].Thickness = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero thickness should error")
	}
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[1].Nx = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("empty grid should error")
	}
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[2].Material.Conductivity = -1
	if err := bad.Validate(); err == nil {
		t.Errorf("bad material should error")
	}
	bad = good
	bad.ConvectionR = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero convection R should error")
	}
	bad = good
	bad.ConvectionC = -5
	if err := bad.Validate(); err == nil {
		t.Errorf("negative convection C should error")
	}
	// Layer narrower than the one above.
	bad = good
	bad.Layers = append([]Layer(nil), good.Layers...)
	bad.Layers[3].W = bad.Layers[2].W / 2
	if err := bad.Validate(); err == nil {
		t.Errorf("shrinking stack should error")
	}
}

func TestDefaultConfigGrowsForLargeDie(t *testing.T) {
	// The 22 nm 100-core die (960 mm² ≈ 31 mm side) outgrows the 3 cm
	// spreader; the config must expand spreader and sink to cover it.
	c := DefaultConfig(0.031, 0.031, 10, 10)
	if c.Layers[2].W < 0.031 {
		t.Errorf("spreader not grown: %v", c.Layers[2].W)
	}
	if c.Layers[3].W < c.Layers[2].W {
		t.Errorf("sink smaller than spreader")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("grown config invalid: %v", err)
	}
}

func TestZeroPowerIsAmbient(t *testing.T) {
	m := model16(t)
	temps, err := m.SteadyState(make([]float64, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range temps {
		if math.Abs(tc-DefaultAmbientC) > 1e-6 {
			t.Fatalf("block %d at %v °C with zero power", i, tc)
		}
	}
}

func TestUniformPowerSymmetry(t *testing.T) {
	m := model16(t)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.0
	}
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// The four corners see identical temperatures by symmetry.
	fp := m.Floorplan()
	corners := []int{fp.Index(0, 0), fp.Index(0, 9), fp.Index(9, 0), fp.Index(9, 9)}
	for _, c := range corners[1:] {
		if math.Abs(temps[c]-temps[corners[0]]) > 1e-6 {
			t.Errorf("corner temps differ: %v vs %v", temps[c], temps[corners[0]])
		}
	}
	// Centre hotter than corners (lateral spreading).
	centre := temps[fp.Index(5, 5)]
	if centre <= temps[corners[0]] {
		t.Errorf("centre %v not hotter than corner %v", centre, temps[corners[0]])
	}
}

func TestLinearityAndSuperposition(t *testing.T) {
	m := model16(t)
	amb := m.Ambient()
	p1 := make([]float64, 100)
	p2 := make([]float64, 100)
	p1[12] = 3
	p2[87] = 2
	t1, err := m.SteadyState(p1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := m.SteadyState(p2)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, 100)
	for i := range sum {
		sum[i] = p1[i] + p2[i]
	}
	t12, err := m.SteadyState(sum)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t12 {
		want := t1[i] + t2[i] - amb
		if math.Abs(t12[i]-want) > 1e-6 {
			t.Fatalf("superposition violated at %d: %v vs %v", i, t12[i], want)
		}
	}
	// Doubling power doubles the rise.
	double := make([]float64, 100)
	for i := range double {
		double[i] = 2 * p1[i]
	}
	td, err := m.SteadyState(double)
	if err != nil {
		t.Fatal(err)
	}
	for i := range td {
		want := amb + 2*(t1[i]-amb)
		if math.Abs(td[i]-want) > 1e-6 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestConcentrationHeatsMore(t *testing.T) {
	// The physical heart of dark-silicon patterning (Fig. 8): the same
	// total power concentrated in a contiguous cluster produces a higher
	// peak temperature than when spread across the die.
	m := model16(t)
	fp := m.Floorplan()
	const total = 150.0
	clustered := make([]float64, 100)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			clustered[fp.Index(r, c)] = total / 25
		}
	}
	spread := make([]float64, 100)
	for r := 0; r < 10; r += 2 {
		for c := 0; c < 10; c += 2 {
			spread[fp.Index(r, c)] = total / 25
		}
	}
	pc, _, err := m.PeakSteadyState(clustered)
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := m.PeakSteadyState(spread)
	if err != nil {
		t.Fatal(err)
	}
	if pc <= ps+0.5 {
		t.Errorf("clustered peak %v should clearly exceed spread peak %v", pc, ps)
	}
}

func TestMagnitudeSanity(t *testing.T) {
	// 100 cores × 2 W = 200 W: convection alone contributes 20 K over
	// 45 °C ambient; with conduction the peak should land in the
	// 65–85 °C band the paper's experiments live in.
	m := model16(t)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.0
	}
	peak, _, err := m.PeakSteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if peak < 65 || peak > 85 {
		t.Errorf("peak at 200 W uniform = %.2f °C, want within [65, 85]", peak)
	}
}

func TestPowerVectorErrors(t *testing.T) {
	m := model16(t)
	if _, err := m.SteadyState(make([]float64, 7)); err == nil {
		t.Errorf("wrong-length power vector should error")
	}
	bad := make([]float64, 100)
	bad[3] = -1
	if _, err := m.SteadyState(bad); err == nil {
		t.Errorf("negative power should error")
	}
}

// TestNonFinitePowerRejected is the table test for the thermal seam's
// power check: every solve entry point rejects a negative, NaN or
// infinite block power with a *PowerError that wraps ErrConfig and names
// the block, and no state advances.
func TestNonFinitePowerRejected(t *testing.T) {
	m := model16(t)
	entries := []struct {
		name string
		call func(p []float64) ([]float64, error)
	}{
		{"SteadyState", m.SteadyState},
		{"Transient.Step", func(p []float64) ([]float64, error) {
			tr, err := m.NewTransient(1e-3)
			if err != nil {
				return nil, err
			}
			before := tr.BlockTemps()
			temps, err := tr.Step(p)
			if after := tr.BlockTemps(); !floatsEqual(before, after) {
				t.Errorf("Step advanced the state on a rejected power map")
			}
			return temps, err
		}},
		{"MacroStep", func(p []float64) ([]float64, error) {
			tr, err := m.NewTransient(1e-3)
			if err != nil {
				return nil, err
			}
			return tr.MacroStep(p, 50)
		}},
		{"Transient.AdvanceQuiet", func(p []float64) ([]float64, error) {
			tr, err := m.NewTransient(1e-3)
			if err != nil {
				return nil, err
			}
			temps, _, err := tr.AdvanceQuiet(p, 0.01, 0)
			return temps, err
		}},
		{"TransientBatch.StepAll", func(p []float64) ([]float64, error) {
			b, err := m.NewTransientBatch(1e-3, 2)
			if err != nil {
				return nil, err
			}
			good := make([]float64, m.NumBlocks())
			temps := [][]float64{make([]float64, m.NumBlocks()), make([]float64, m.NumBlocks())}
			before := b.Transient(0).BlockTemps()
			err = b.StepAll([][]float64{good, p}, nil, temps)
			if after := b.Transient(0).BlockTemps(); !floatsEqual(before, after) {
				t.Errorf("StepAll advanced a healthy lane on a rejected power map")
			}
			return nil, err
		}},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, e := range entries {
			p := make([]float64, m.NumBlocks())
			p[7] = bad
			temps, err := e.call(p)
			if !errors.Is(err, ErrConfig) {
				t.Errorf("%s(%v): error %v does not wrap ErrConfig", e.name, bad, err)
				continue
			}
			var pe *PowerError
			if !errors.As(err, &pe) || pe.Block != 7 {
				t.Errorf("%s(%v): error %v is not a *PowerError for block 7", e.name, bad, err)
			}
			if temps != nil {
				t.Errorf("%s(%v): returned temperatures with an error", e.name, bad)
			}
		}
	}
}

func TestNewModelErrors(t *testing.T) {
	fp, err := floorplan.NewGrid(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(fp.DieW, fp.DieH, 2, 2)
	bad.ConvectionR = -1
	if _, err := NewModel(fp, bad); err == nil {
		t.Errorf("invalid config should error")
	}
	// Die layer smaller than the floorplan.
	small := DefaultConfig(fp.DieW/4, fp.DieH/4, 2, 2)
	if _, err := NewModel(fp, small); err == nil {
		t.Errorf("undersized die should error")
	}
	var empty floorplan.Floorplan
	if _, err := NewModel(&empty, DefaultConfig(1, 1, 2, 2)); err == nil {
		t.Errorf("empty floorplan should error")
	}
}

func TestInfluenceMatrix(t *testing.T) {
	m := model16(t)
	inf, err := m.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inf.Rows != 100 || inf.Cols != 100 {
		t.Fatalf("influence shape %dx%d", inf.Rows, inf.Cols)
	}
	// Cached on second call.
	if again, _ := m.InfluenceMatrix(context.Background()); again != inf {
		t.Errorf("influence matrix should be cached")
	}
	// Self-influence dominates cross influence.
	if inf.At(0, 0) <= inf.At(0, 99) {
		t.Errorf("self influence %v <= far influence %v", inf.At(0, 0), inf.At(0, 99))
	}
	// All entries positive (heat anywhere warms everything at steady state).
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			if inf.At(i, j) <= 0 {
				t.Fatalf("influence[%d][%d] = %v", i, j, inf.At(i, j))
			}
		}
	}
	// Symmetry: injection and readout use identical weights, G is
	// symmetric, so B = W·G⁻¹·Wᵀ is symmetric.
	if !inf.IsSymmetric(1e-9) {
		t.Errorf("influence matrix should be symmetric")
	}
	// Consistency with SteadyState: T = B·P + ambient field.
	p := make([]float64, 100)
	p[42] = 4
	direct, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	base := m.AmbientField()
	for i := 0; i < 100; i++ {
		want := base[i] + inf.At(i, 42)*4
		if math.Abs(direct[i]-want) > 1e-6 {
			t.Fatalf("influence inconsistency at %d: %v vs %v", i, direct[i], want)
		}
	}
}

func TestAmbientField(t *testing.T) {
	m := model16(t)
	for i, b := range m.AmbientField() {
		if math.Abs(b-DefaultAmbientC) > 1e-6 {
			t.Fatalf("ambient field[%d] = %v", i, b)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := model16(t)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 1.8
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The sink/convection time constant is ~100.4·0.1 s-scale; run long.
	var got []float64
	for i := 0; i < 20000; i++ {
		got, err = tr.Step(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.05 {
			t.Fatalf("transient[%d] = %v, steady = %v", i, got[i], want[i])
		}
	}
}

func TestTransientMonotoneHeating(t *testing.T) {
	m := model16(t)
	tr, err := m.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.5
	}
	prev, _ := tr.PeakBlockTemp()
	for i := 0; i < 200; i++ {
		if _, err := tr.Step(p); err != nil {
			t.Fatal(err)
		}
		cur, _ := tr.PeakBlockTemp()
		if cur < prev-1e-9 {
			t.Fatalf("heating not monotone at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
	if prev <= DefaultAmbientC+0.5 {
		t.Errorf("chip barely heated after 2 s: %v", prev)
	}
}

func TestTransientStateControls(t *testing.T) {
	m := model16(t)
	tr, err := m.NewTransient(0.001)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetUniform(60)
	if peak, _ := tr.PeakBlockTemp(); math.Abs(peak-60) > 1e-9 {
		t.Errorf("SetUniform peak = %v", peak)
	}
	p := make([]float64, 100)
	p[50] = 5
	if err := tr.SetSteadyState(p); err != nil {
		t.Fatal(err)
	}
	want, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.BlockTemps()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("SetSteadyState mismatch at %d", i)
		}
	}
	if err := tr.SetSteadyState(make([]float64, 3)); err == nil {
		t.Errorf("bad power length should error")
	}
	if _, err := tr.Step(make([]float64, 3)); err == nil {
		t.Errorf("bad power length in Step should error")
	}
	for _, dt := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := m.NewTransient(dt); !errors.Is(err, ErrConfig) {
			t.Errorf("dt %g: err = %v, want ErrConfig", dt, err)
		}
	}
}

// Property: steady-state peak temperature is monotone in any single
// block's power.
func TestPeakMonotoneInPowerProperty(t *testing.T) {
	m := model16(t)
	base := make([]float64, 100)
	for i := range base {
		base[i] = 1.0
	}
	f := func(blockRaw uint8, extraRaw float64) bool {
		block := int(blockRaw) % 100
		extra := math.Mod(math.Abs(extraRaw), 5)
		p0, _, err := m.PeakSteadyState(base)
		if err != nil {
			return false
		}
		bumped := append([]float64(nil), base...)
		bumped[block] += extra
		p1, _, err := m.PeakSteadyState(bumped)
		if err != nil {
			return false
		}
		return p1 >= p0-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// Property: total heat flow to ambient equals total injected power at
// steady state (energy conservation).
func TestEnergyConservationProperty(t *testing.T) {
	m := model16(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make([]float64, 100)
		var total float64
		for i := range p {
			p[i] = 4 * rng.Float64()
			total += p[i]
		}
		nodeT, err := m.SteadyStateNodes(p)
		if err != nil {
			return false
		}
		var out float64
		for i, c := range m.cells {
			if c.gAmbW > 0 {
				out += c.gAmbW * (nodeT[i] - m.cfg.AmbientC)
			}
		}
		return math.Abs(out-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestConductanceMatrixSymmetric(t *testing.T) {
	m := model16(t)
	if !m.Conductances().IsSymmetric(1e-12) {
		t.Errorf("conductance matrix must be symmetric")
	}
	if m.NumNodes() != 100+100+64+100 {
		t.Errorf("node count = %d", m.NumNodes())
	}
	if m.NumBlocks() != 100 {
		t.Errorf("block count = %d", m.NumBlocks())
	}
	_ = linalg.Vector(nil) // keep import if asserts change
}

// modelWithSolver builds the 10x10 platform with a forced solver path.
func modelWithSolver(t testing.TB, k SolverKind) *Model {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(fp.DieW, fp.DieH, 10, 10)
	cfg.Solver = k
	m, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSolverPathSelection pins that there is one solve path: every
// compatibility SolverKind value, and a model above
// the old 512-node dense/sparse switch, report the envelope path and
// zero CG iterations after real work.
func TestSolverPathSelection(t *testing.T) {
	fp, err := floorplan.NewGrid(15, 15, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, 15, 15))
	if err != nil {
		t.Fatal(err)
	}
	if big.NumNodes() <= 512 {
		t.Fatalf("15x15 platform has %d nodes, expected above 512", big.NumNodes())
	}
	models := map[string]*Model{"auto": model16(t), "dense": modelWithSolver(t, SolverDense),
		"sparse": modelWithSolver(t, SolverSparse), "big": big}
	for name, m := range models {
		p := make([]float64, m.NumBlocks())
		for i := range p {
			p[i] = 1.5
		}
		if _, err := m.SteadyState(p); err != nil {
			t.Fatal(err)
		}
		tr, err := m.NewTransient(1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Step(p); err != nil {
			t.Fatal(err)
		}
		st := m.SolverStats()
		if st.Path != "envelope" || st.Solves < 3 || st.CGIterations != 0 {
			t.Errorf("%s: stats = %+v, want the envelope path, >= 3 solves, 0 CG iterations", name, st)
		}
	}
	// SolverKind strings and config validation.
	if SolverAuto.String() != "auto" || SolverDense.String() != "dense" || SolverSparse.String() != "sparse" {
		t.Errorf("SolverKind strings wrong")
	}
	if SolverKind(9).String() == "" {
		t.Errorf("unknown kind should still print")
	}
	bad := DefaultConfig(0.02, 0.02, 4, 4)
	bad.Solver = SolverKind(9)
	if err := bad.Validate(); err == nil {
		t.Errorf("unknown solver kind should fail validation")
	}
}

// paperModel builds the thermal model of a paper platform the way
// core.NewPlatformWith does: the node's core area on the standard grid,
// discretized at the core grid.
func paperModel(t testing.TB, node tech.Node, cores int) *Model {
	t.Helper()
	spec, err := tech.SpecFor(node)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.NewGridForCount(cores, spec.CoreAreaMM2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, fp.Cols, fp.Rows))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// luSolve solves a·x = b with the dense LU oracle. The system is
// relabelled symmetrically by order first: partial-pivoting LU skips zero
// multipliers, so a banded labelling keeps the 1024-core oracle under a
// second. The permutation is undone before returning.
func luSolve(t *testing.T, a *linalg.CSR, order []int, b linalg.Vector) linalg.Vector {
	t.Helper()
	d := a.Dense()
	n := a.N
	pd := linalg.NewMatrix(n, n)
	pb := linalg.NewVector(n)
	for i, oi := range order {
		pb[i] = b[oi]
		for j, oj := range order {
			pd.Set(i, j, d.At(oi, oj))
		}
	}
	lu, err := linalg.NewLU(pd)
	if err != nil {
		t.Fatal(err)
	}
	px, err := lu.Solve(pb)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewVector(n)
	for i, oi := range order {
		x[oi] = px[i]
	}
	return x
}

// TestEnvelopeMatchesLUOracle checks the one solve path against an
// independent dense LU with partial pivoting: steady-state and
// implicit-Euler transient node temperatures on the four paper platforms
// and a 1024-core grid, to relative 1e-10.
func TestEnvelopeMatchesLUOracle(t *testing.T) {
	type platform struct {
		name  string
		model func(testing.TB) *Model
	}
	platforms := []platform{
		{"22nm/100", func(tb testing.TB) *Model { return paperModel(tb, tech.Node22, 100) }},
		{"16nm/100", func(tb testing.TB) *Model { return paperModel(tb, tech.Node16, 100) }},
		{"11nm/198", func(tb testing.TB) *Model { return paperModel(tb, tech.Node11, 198) }},
		{"8nm/361", func(tb testing.TB) *Model { return paperModel(tb, tech.Node8, 361) }},
		{"grid/1024", func(tb testing.TB) *Model {
			fp, err := floorplan.NewGrid(32, 32, 5.1)
			if err != nil {
				tb.Fatal(err)
			}
			m, err := NewModel(fp, DefaultConfig(fp.DieW, fp.DieH, 32, 32))
			if err != nil {
				tb.Fatal(err)
			}
			return m
		}},
	}
	rng := rand.New(rand.NewSource(13))
	check := func(name string, got, want linalg.Vector) {
		t.Helper()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10*math.Abs(want[i]) {
				t.Fatalf("%s: node %d = %.17g, LU oracle %.17g", name, i, got[i], want[i])
			}
		}
	}
	for _, pl := range platforms {
		m := pl.model(t)
		p := make([]float64, m.NumBlocks())
		for i := range p {
			p[i] = 4 * rng.Float64()
		}
		// Steady state: G·T = P + P_amb.
		got, err := m.SteadyStateNodes(p)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := m.nodePower(p)
		if err != nil {
			t.Fatal(err)
		}
		rhs.AddScaled(1, m.ambRHS)
		check(pl.name+" steady", got, luSolve(t, m.gs, m.order, rhs))

		// One transient step from a non-uniform state:
		// (C/dt + G)·T⁺ = (C/dt)·T + P + P_amb.
		const dt = 1e-3
		tr, err := m.NewTransient(dt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.t {
			tr.t[i] = 45 + 10*rng.Float64()
		}
		t0 := tr.t.Clone()
		if _, err := tr.Step(p); err != nil {
			t.Fatal(err)
		}
		a, err := m.gs.AddDiagonal(tr.tf.capDt)
		if err != nil {
			t.Fatal(err)
		}
		rhs, _ = m.nodePower(p)
		for i := range rhs {
			rhs[i] += tr.tf.capDt[i]*t0[i] + m.ambRHS[i]
		}
		check(pl.name+" transient", tr.t, luSolve(t, a, m.order, rhs))
	}
}

// TestSparseMatchesDenseSteadyState pins that the compatibility solver
// kinds select nothing at steady state: models built with SolverDense
// and SolverSparse give bit-identical steady temperatures and influence
// matrices, and both report the one envelope path with no CG work.
func TestSparseMatchesDenseSteadyState(t *testing.T) {
	dense := modelWithSolver(t, SolverDense)
	sparse := modelWithSolver(t, SolverSparse)
	rng := rand.New(rand.NewSource(7))
	p := make([]float64, 100)
	for i := range p {
		p[i] = 4 * rng.Float64()
	}
	td, err := dense.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := sparse.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range td {
		if td[i] != ts[i] {
			t.Fatalf("block %d: dense %v sparse %v", i, td[i], ts[i])
		}
	}
	id, err := dense.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	is, err := sparse.InfluenceMatrix(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < id.Rows; i++ {
		for j := 0; j < id.Cols; j++ {
			if id.At(i, j) != is.At(i, j) {
				t.Fatalf("influence differs at (%d,%d): dense %v sparse %v", i, j, id.At(i, j), is.At(i, j))
			}
		}
	}
	for name, st := range map[string]SolverStats{"dense": dense.SolverStats(), "sparse": sparse.SolverStats()} {
		if st.Path != "envelope" || st.Solves == 0 || st.CGIterations != 0 {
			t.Errorf("%s stats = %+v", name, st)
		}
	}
}

// TestSteadyStateIterativeMatchesDirect reaches steady state
// iteratively, by implicit-Euler pseudo-time steps far longer than the
// package's slowest time constant, and checks that the fixed point is
// the direct steady solve. The two use different factors, (C/dt + G)
// and G, under the one profile ordering.
func TestSteadyStateIterativeMatchesDirect(t *testing.T) {
	m := model16(t)
	rng := rand.New(rand.NewSource(31))
	p := make([]float64, 100)
	for i := range p {
		p[i] = 4 * rng.Float64()
	}
	direct, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(1e4)
	if err != nil {
		t.Fatal(err)
	}
	var iter []float64
	for k := 0; k < 50; k++ {
		if iter, err = tr.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range direct {
		if math.Abs(direct[i]-iter[i]) > 1e-9 {
			t.Fatalf("solvers disagree at %d: %v vs %v", i, direct[i], iter[i])
		}
	}
	// Error paths propagate.
	if _, err := tr.Step(make([]float64, 3)); err == nil {
		t.Errorf("bad power length should error")
	}
	if _, err := m.SteadyState(make([]float64, 3)); err == nil {
		t.Errorf("bad power length should error")
	}
}

// TestSparseMatchesDenseTransient pins that the compatibility solver
// kinds select nothing: models built with SolverDense and SolverSparse
// step bit-identically. It also pins the per-dt factor cache.
func TestSparseMatchesDenseTransient(t *testing.T) {
	dense := modelWithSolver(t, SolverDense)
	sparse := modelWithSolver(t, SolverSparse)
	trd, err := dense.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := sparse.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2.5
	}
	for step := 0; step < 50; step++ {
		td, err := trd.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := trs.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range td {
			if td[i] != ts[i] {
				t.Fatalf("step %d block %d: dense %v sparse %v", step, i, td[i], ts[i])
			}
		}
	}
	// The per-dt factor cache hands a second transient the same factor.
	again, err := sparse.NewTransient(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if again.tf != trs.tf {
		t.Errorf("transient factor not cached per dt")
	}
	other, err := sparse.NewTransient(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if other.tf == trs.tf {
		t.Errorf("distinct dt must not share a factor")
	}
}

func BenchmarkSteadyState100(b *testing.B) {
	m := model16(b)
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientStep100(b *testing.B) {
	m := model16(b)
	tr, err := m.NewTransient(0.001)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, 100)
	for i := range p {
		p[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBlocksSpanningMultipleDieCells(t *testing.T) {
	// When the die grid is coarser than the floorplan (here 2x2 cells
	// under a 4x4 core grid), each block's power must be distributed by
	// area overlap and its readout averaged over the overlapped cells.
	fp, err := floorplan.NewGrid(4, 4, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	coarse := DefaultConfig(fp.DieW, fp.DieH, 2, 2)
	m, err := NewModel(fp, coarse)
	if err != nil {
		t.Fatal(err)
	}
	// Energy conservation still holds with fractional bindings.
	p := make([]float64, 16)
	for i := range p {
		p[i] = 1.5
	}
	nodeT, err := m.SteadyStateNodes(p)
	if err != nil {
		t.Fatal(err)
	}
	var out float64
	for i, c := range m.cells {
		if c.gAmbW > 0 {
			out += c.gAmbW * (nodeT[i] - m.cfg.AmbientC)
		}
	}
	if math.Abs(out-24) > 1e-6 {
		t.Errorf("energy conservation broken with coarse die grid: %v W out", out)
	}
	// A central block straddles all four cells; corner blocks map to one.
	temps, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range temps {
		if tc <= m.Ambient() {
			t.Fatalf("block %d at %v °C", i, tc)
		}
	}
	// The die grid is finer than the floorplan in the usual setup; also
	// exercise the opposite: a 8x8 die grid under the same 4x4 cores.
	fine := DefaultConfig(fp.DieW, fp.DieH, 8, 8)
	mf, err := NewModel(fp, fine)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := mf.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	// Coarse and fine models agree to within a degree on this uniform map.
	for i := range temps {
		if math.Abs(temps[i]-tf[i]) > 1.0 {
			t.Errorf("block %d: coarse %v vs fine %v", i, temps[i], tf[i])
		}
	}
}
