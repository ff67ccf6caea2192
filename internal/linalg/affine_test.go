package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomStepMap builds the implicit-Euler step map M = (C/dt+G)⁻¹·(C/dt)
// of a random RC network: G = L·Lᵀ + diagonal boost is SPD, C is a
// positive diagonal. Such maps always have spectral radius < 1, which is
// the regime the thermal macro-stepper runs the ladder in.
func randomStepMap(rng *rand.Rand, n int) (m *Matrix, err error) {
	g := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64() - 0.5
			if i == j {
				v = 1 + rng.Float64()
			}
			g.Set(i, j, v)
		}
	}
	gg := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= i && k <= j; k++ {
				s += g.At(i, k) * g.At(j, k)
			}
			gg.Set(i, j, s)
		}
	}
	capDt := NewVector(n)
	for i := range capDt {
		capDt[i] = 0.5 + 2*rng.Float64()
	}
	a := gg.Clone()
	for i := 0; i < n; i++ {
		a.Add(i, i, capDt[i])
	}
	chol, err := denseEnvelope(a)
	if err != nil {
		return nil, err
	}
	ainv := chol.Inverse()
	m = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, ainv.At(i, j)*capDt[j])
		}
	}
	return m, nil
}

// naiveAdvance applies x ← M·x + b one step at a time.
func naiveAdvance(m *Matrix, t, b Vector, k int) Vector {
	x := t.Clone()
	for s := 0; s < k; s++ {
		y, _ := m.MulVec(x)
		for i := range y {
			y[i] += b[i]
		}
		x = y
	}
	return x
}

// TestAffinePowersMatchesNaive is the ladder property test: on random
// SPD-derived step maps, Advance(k) must agree with k explicit steps to
// within 1e-9 for every k across hop boundaries and composite shapes.
func TestAffinePowersMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(7)
		m, err := randomStepMap(rng, n)
		if err != nil {
			t.Fatalf("trial %d: step map: %v", trial, err)
		}
		ap, err := NewAffinePowers(m, 5) // hops of at most 32 steps
		if err != nil {
			t.Fatalf("trial %d: NewAffinePowers: %v", trial, err)
		}
		t0 := NewVector(n)
		b := NewVector(n)
		for i := 0; i < n; i++ {
			t0[i] = 20 + 60*rng.Float64()
			b[i] = rng.Float64()
		}
		scratch := NewVector(n)
		for _, k := range []int{1, 2, 3, 5, 8, 16, 31, 32, 33, 100, 257} {
			got := t0.Clone()
			if err := ap.Advance(k, got, b, scratch); err != nil {
				t.Fatalf("trial %d: Advance(%d): %v", trial, k, err)
			}
			want := naiveAdvance(m, t0, b, k)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("trial %d: k=%d node %d: ladder %v vs naive %v (|Δ|=%g)",
						trial, k, i, got[i], want[i], math.Abs(got[i]-want[i]))
				}
			}
		}
	}
}

// TestAffinePowersDeterministic pins that repeated Advance calls with the
// same inputs are bitwise identical, including across a fresh ladder —
// cold and warm runs must not diverge.
func TestAffinePowersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := randomStepMap(rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	t0 := Vector{30, 40, 50, 60, 70}
	b := Vector{0.1, 0.2, 0.3, 0.4, 0.5}
	run := func() Vector {
		ap, err := NewAffinePowers(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		x := t0.Clone()
		if err := ap.Advance(77, x, b, NewVector(5)); err != nil {
			t.Fatal(err)
		}
		return x
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("node %d: cold runs disagree bitwise: %v vs %v", i, a[i], bb[i])
		}
	}
}

// TestAffinePowersErrors covers dimension and argument validation.
func TestAffinePowersErrors(t *testing.T) {
	if _, err := NewAffinePowers(NewMatrix(2, 3), 4); err == nil {
		t.Fatal("want error for non-square map")
	}
	ap, err := NewAffinePowers(Identity(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Advance(1, NewVector(2), NewVector(3), NewVector(3)); err == nil {
		t.Fatal("want dimension error for short t")
	}
	if err := ap.Advance(-1, NewVector(3), NewVector(3), NewVector(3)); err == nil {
		t.Fatal("want error for negative k")
	}
	if err := ap.Advance(0, NewVector(3), NewVector(3), NewVector(3)); err != nil {
		t.Fatalf("Advance(0) should be a no-op, got %v", err)
	}
}

// TestSolveBatchMatchesSingle pins the batched envelope solve to the
// single-RHS path bit for bit, under the natural and the profile
// ordering: batching may only interleave independent columns, never
// change any column's arithmetic.
func TestSolveBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 17, 40} {
		for _, k := range []int{1, 2, 3, 7} {
			a := randomSPDCSR(rng, n, 0.2)
			for _, perm := range [][]int{nil, ProfileOrder(a)} {
				chol, err := NewEnvelopeCholesky(a, perm)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				batch := make([]Vector, k)
				single := make([]Vector, k)
				for c := 0; c < k; c++ {
					batch[c] = NewVector(n)
					for i := range batch[c] {
						batch[c][i] = 10 * (rng.Float64() - 0.5)
					}
					single[c] = batch[c].Clone()
				}
				if err := chol.SolveBatchInPlace(batch); err != nil {
					t.Fatalf("n=%d k=%d: batch: %v", n, k, err)
				}
				for c := 0; c < k; c++ {
					chol.SolveInPlace(single[c])
					for i := range single[c] {
						if batch[c][i] != single[c][i] {
							t.Fatalf("n=%d k=%d col %d row %d: batch %v != single %v",
								n, k, c, i, batch[c][i], single[c][i])
						}
					}
				}
			}
		}
	}
	chol, err := denseEnvelope(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := chol.SolveBatchInPlace([]Vector{NewVector(2)}); err == nil {
		t.Fatal("want dimension error for short column")
	}
	if err := chol.SolveBatchInPlace(nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}
