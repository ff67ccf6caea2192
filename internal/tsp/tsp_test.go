package tsp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darksim/internal/floorplan"
	"darksim/internal/thermal"
)

// grid100 is the 10x10 floorplan model100 is built on.
func grid100(t testing.TB) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func model100(t testing.TB) *thermal.Model {
	t.Helper()
	fp := grid100(t)
	m, err := thermal.NewModel(fp, thermal.DefaultConfig(fp.DieW, fp.DieH, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, 80); err == nil {
		t.Errorf("nil model should error")
	}
	m := model100(t)
	if _, err := New(m, 30); err == nil {
		t.Errorf("threshold below ambient should be infeasible")
	}
}

func TestGivenSafety(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	// A contiguous 5x5 cluster.
	fp := grid100(t)
	var active []int
	for r := 0; r < 5; r++ {
		for col := 0; col < 5; col++ {
			active = append(active, fp.Index(r, col))
		}
	}
	p, err := c.Given(context.Background(), active)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Fatalf("TSP = %v", p)
	}
	// Running the set exactly at TSP must not violate the threshold;
	// running 5% above must violate it.
	pw := make([]float64, 100)
	for _, a := range active {
		pw[a] = p
	}
	peak, _, err := m.PeakSteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	if peak > 80+1e-6 {
		t.Errorf("peak at TSP = %.4f °C exceeds threshold", peak)
	}
	if peak < 79.99 {
		t.Errorf("TSP should be tight: peak = %.4f °C", peak)
	}
	for _, a := range active {
		pw[a] = p * 1.05
	}
	peak, _, err = m.PeakSteadyState(pw)
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 80 {
		t.Errorf("5%% over TSP should violate: peak = %.4f °C", peak)
	}
}

func TestGivenErrors(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Given(context.Background(), nil); err == nil {
		t.Errorf("empty set should error")
	}
	if _, err := c.Given(context.Background(), []int{-1}); err == nil {
		t.Errorf("negative index should error")
	}
	if _, err := c.Given(context.Background(), []int{100}); err == nil {
		t.Errorf("out-of-range index should error")
	}
	if _, err := c.Given(context.Background(), []int{3, 3}); err == nil {
		t.Errorf("duplicate index should error")
	}
}

func TestWorstCaseDecreasesWithCores(t *testing.T) {
	// §5: "As the number of active cores grows, the TSP values decrease."
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, n := range []int{1, 4, 16, 36, 64, 100} {
		p, placement, err := c.WorstCase(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		if len(placement) != n {
			t.Fatalf("placement size %d, want %d", len(placement), n)
		}
		if p >= prev {
			t.Errorf("TSP(%d) = %.3f not below TSP of fewer cores %.3f", n, p, prev)
		}
		prev = p
	}
}

func TestWorstCaseBelowGivenSpreadMapping(t *testing.T) {
	// The worst-case budget must be ≤ the budget of a deliberately
	// spread mapping of the same size.
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	worst, _, err := c.WorstCase(context.Background(), 25)
	if err != nil {
		t.Fatal(err)
	}
	fp := grid100(t)
	var spread []int
	for r := 0; r < 10; r += 2 {
		for col := 0; col < 10; col += 2 {
			spread = append(spread, fp.Index(r, col))
		}
	}
	given, err := c.Given(context.Background(), spread)
	if err != nil {
		t.Fatal(err)
	}
	if worst > given+1e-9 {
		t.Errorf("worst-case TSP %.3f exceeds spread-mapping TSP %.3f", worst, given)
	}
}

func TestBestCaseAboveWorstCase(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 40, 70} {
		worst, _, err := c.WorstCase(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		best, placement, err := c.BestCase(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		if len(placement) != n {
			t.Fatalf("best placement size %d", len(placement))
		}
		if best < worst-1e-9 {
			t.Errorf("n=%d: best-case TSP %.3f below worst-case %.3f", n, best, worst)
		}
	}
	// At n == all cores the two coincide (no placement freedom).
	worst, _, err := c.WorstCase(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := c.BestCase(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(worst-best) > 1e-9 {
		t.Errorf("full-chip TSP should be unique: %.4f vs %.4f", worst, best)
	}
}

func TestRangeErrors(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.WorstCase(context.Background(), 0); err == nil {
		t.Errorf("n=0 should error")
	}
	if _, _, err := c.WorstCase(context.Background(), 101); err == nil {
		t.Errorf("n>cores should error")
	}
	if _, _, err := c.BestCase(context.Background(), -1); err == nil {
		t.Errorf("n<0 should error")
	}
	if _, err := c.Table(context.Background(), 0, 1); err == nil {
		t.Errorf("table 0 should error")
	}
	if _, err := c.Table(context.Background(), 10, 0); err == nil {
		t.Errorf("table step 0 should error")
	}
	if _, err := c.Table(context.Background(), 101, 1); err == nil {
		t.Errorf("oversized table should error")
	}
}

func TestTableMonotone(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := c.Table(context.Background(), 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab) != 30 {
		t.Fatalf("table size %d", len(tab))
	}
	for i := 1; i < len(tab); i++ {
		if tab[i].PerCoreW > tab[i-1].PerCoreW+1e-9 {
			t.Errorf("per-core TSP increased at n=%d", tab[i].ActiveCores)
		}
		// Total safe power grows with more (cooler) cores.
		if tab[i].TotalW < tab[i-1].TotalW-1e-9 {
			t.Errorf("total TSP decreased at n=%d", tab[i].ActiveCores)
		}
	}
}

// Property: adding a core to an active set never increases its TSP.
func TestGivenMonotoneProperty(t *testing.T) {
	m := model100(t)
	c, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(100)
		n := 1 + rng.Intn(98)
		base := perm[:n]
		extended := perm[:n+1]
		pBase, err := c.Given(context.Background(), base)
		if err != nil {
			return false
		}
		pExt, err := c.Given(context.Background(), extended)
		if err != nil {
			return false
		}
		return pExt <= pBase+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: TSP scales linearly with threshold headroom above the
// ambient field (by linearity of the model).
func TestGivenLinearInHeadroomProperty(t *testing.T) {
	m := model100(t)
	c80, err := New(m, 80)
	if err != nil {
		t.Fatal(err)
	}
	amb := thermal.DefaultAmbientC
	c99, err := New(m, amb+2*(80-amb))
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(100)
		n := 1 + rng.Intn(99)
		active := perm[:n]
		p1, err := c80.Given(context.Background(), active)
		if err != nil {
			return false
		}
		p2, err := c99.Given(context.Background(), active)
		if err != nil {
			return false
		}
		return math.Abs(p2-2*p1) < 1e-6*(1+p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestWorstCasePrefixConsistency pins the property the single-walk Table
// relies on: the greedy n-core placement is a prefix of the max-core
// placement, and Table's prefix-evaluated values are bit-identical to
// calling WorstCase (and Given) per core count.
func TestWorstCasePrefixConsistency(t *testing.T) {
	c, err := New(model100(t), 80)
	if err != nil {
		t.Fatal(err)
	}
	const max = 40
	_, full, err := c.WorstCase(context.Background(), max)
	if err != nil {
		t.Fatal(err)
	}
	table, err := c.Table(context.Background(), max, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != max {
		t.Fatalf("table length %d", len(table))
	}
	for _, n := range []int{1, 2, 7, 25, max} {
		p, active, err := c.WorstCase(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		if len(active) != n {
			t.Fatalf("WorstCase(%d) placed %d cores", n, len(active))
		}
		for i, a := range active {
			if a != full[i] {
				t.Fatalf("WorstCase(%d) not a prefix of WorstCase(%d) at %d: %d vs %d", n, max, i, a, full[i])
			}
		}
		if table[n-1].PerCoreW != p {
			t.Fatalf("Table entry %d = %v, WorstCase = %v", n, table[n-1].PerCoreW, p)
		}
		given, err := c.Given(context.Background(), active)
		if err != nil {
			t.Fatal(err)
		}
		if given != p {
			t.Fatalf("Given(placement) = %v, WorstCase = %v", given, p)
		}
		// A one-row table at n is the single-count query /v1/tsp serves.
		one, err := c.Table(context.Background(), n, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != 1 || one[0] != table[n-1] {
			t.Fatalf("Table(%d, %d) = %v, want [%v]", n, n, one, table[n-1])
		}
	}
	// A strided table evaluates only the multiples of step, with the
	// same bits as the dense table at those counts.
	strided, err := c.Table(context.Background(), max, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(strided) != max/7 {
		t.Fatalf("strided table length %d, want %d", len(strided), max/7)
	}
	for i, e := range strided {
		if want := table[(i+1)*7-1]; e != want {
			t.Fatalf("strided entry %d = %v, want %v", i, e, want)
		}
	}
	if empty, err := c.Table(context.Background(), 5, 7); err != nil || len(empty) != 0 {
		t.Fatalf("Table(5, 7) = %v, %v; want an empty table", empty, err)
	}
}

func BenchmarkTSPWorstCase(b *testing.B) {
	c, err := New(model100(b), 80)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the influence matrix so the benchmark isolates the greedy walk.
	if _, _, err := c.WorstCase(context.Background(), 1); err != nil {
		b.Fatal(err)
	}
	b.Run("WorstCase100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := c.WorstCase(context.Background(), 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Table100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Table(context.Background(), 100, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
