package variability

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"darksim/internal/floorplan"
	"darksim/internal/mapping"
)

func grid(t testing.TB) *floorplan.Floorplan {
	t.Helper()
	fp, err := floorplan.NewGrid(10, 10, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestGenerateDeterministic(t *testing.T) {
	fp := grid(t)
	a, err := Generate(fp, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(fp, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.LeakMult {
		if a.LeakMult[i] != b.LeakMult[i] || a.FmaxDeltaGHz[i] != b.FmaxDeltaGHz[i] {
			t.Fatalf("maps differ at %d", i)
		}
	}
	c, err := Generate(fp, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.LeakMult {
		if a.LeakMult[i] != c.LeakMult[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds should differ")
	}
}

func TestGenerateStatistics(t *testing.T) {
	fp := grid(t)
	m, err := Generate(fp, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range m.LeakMult {
		mean += v / float64(len(m.LeakMult))
	}
	// Lognormal with sigma 0.25: mean ≈ exp(0.25²/2) ≈ 1.03, sample
	// noise on 100 cores widens the band.
	if mean < 0.85 || mean > 1.25 {
		t.Errorf("mean multiplier = %.3f", mean)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range m.LeakMult {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		if v <= 0 {
			t.Fatalf("non-positive multiplier %v", v)
		}
	}
	if hi/lo < 1.3 {
		t.Errorf("variation spread too small: [%.2f, %.2f]", lo, hi)
	}
	// Fast cores leak more: positive correlation between fmax delta and
	// leakage multiplier.
	var corrNum, va, vb float64
	meanF := 0.0
	for _, f := range m.FmaxDeltaGHz {
		meanF += f
	}
	meanF /= float64(len(m.FmaxDeltaGHz))
	for i := range m.LeakMult {
		da := m.LeakMult[i] - mean
		db := m.FmaxDeltaGHz[i] - meanF
		corrNum += da * db
		va += da * da
		vb += db * db
	}
	if corrNum/math.Sqrt(va*vb) < 0.8 {
		t.Errorf("fmax and leakage should be strongly correlated")
	}
}

func TestGenerateErrors(t *testing.T) {
	var empty floorplan.Floorplan
	if _, err := Generate(&empty, 0); err == nil {
		t.Errorf("empty floorplan should error")
	}
}

func TestApplyLeak(t *testing.T) {
	fp := grid(t)
	m, err := Generate(fp, 5)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, 100)
	power[0] = 3.0
	power[1] = 3.0
	if err := m.ApplyLeak(power, 0.7); err != nil {
		t.Fatal(err)
	}
	want0 := 3.0 + (m.LeakMult[0]-1)*0.7
	if math.Abs(power[0]-want0) > 1e-12 {
		t.Errorf("power[0] = %v, want %v", power[0], want0)
	}
	// Dark cores stay at zero.
	if power[2] != 0 {
		t.Errorf("dark core gained power: %v", power[2])
	}
	if err := m.ApplyLeak(make([]float64, 3), 0.7); err == nil {
		t.Errorf("length mismatch should error")
	}
}

func TestAwareStrategySelectsCoolSilicon(t *testing.T) {
	fp := grid(t)
	m, err := Generate(fp, 11)
	if err != nil {
		t.Fatal(err)
	}
	aware := m.AwareStrategy(mapping.PeripheryFirst)
	const n = 61
	awareCores, err := aware(fp, n)
	if err != nil {
		t.Fatal(err)
	}
	oblivious, err := mapping.PeripheryFirst(fp, n)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(cores []int) float64 {
		var s float64
		for _, c := range cores {
			s += m.LeakMult[c]
		}
		return s / float64(len(cores))
	}
	if avg(awareCores) >= avg(oblivious) {
		t.Errorf("aware selection should leak less on average: %.3f vs %.3f",
			avg(awareCores), avg(oblivious))
	}
	// Valid, disjoint selection.
	seen := map[int]bool{}
	for _, c := range awareCores {
		if c < 0 || c >= 100 || seen[c] {
			t.Fatalf("bad selection %v", awareCores)
		}
		seen[c] = true
	}
	if _, err := aware(fp, 101); err == nil {
		t.Errorf("oversubscription should error")
	}
}

// Property: the aware strategy is prefix-consistent (required by the
// binary searches built on strategies).
func TestAwareStrategyPrefixProperty(t *testing.T) {
	fp := grid(t)
	m, err := Generate(fp, 13)
	if err != nil {
		t.Fatal(err)
	}
	aware := m.AwareStrategy(mapping.PeripheryFirst)
	f := func(nRaw uint8) bool {
		n := int(nRaw) % 100
		small, err := aware(fp, n)
		if err != nil {
			return false
		}
		large, err := aware(fp, n+1)
		if err != nil {
			return false
		}
		in := map[int]bool{}
		for _, c := range large {
			in[c] = true
		}
		for _, c := range small {
			if !in[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}
