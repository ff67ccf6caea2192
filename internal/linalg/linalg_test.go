package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 9
	if v[0] != 1 {
		t.Fatalf("Clone aliases storage")
	}
	if got := v.Dot(Vector{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := v.Mean(); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := v.Norm2(); !almostEqual(got, math.Sqrt(14), 1e-12) {
		t.Errorf("Norm2 = %v", got)
	}
	if got := (Vector{-5, 2}).NormInf(); got != 5 {
		t.Errorf("NormInf = %v, want 5", got)
	}
	mx, i := Vector{3, 7, 2}.Max()
	if mx != 7 || i != 1 {
		t.Errorf("Max = %v@%d", mx, i)
	}
	mn, j := Vector{3, 7, 2}.Min()
	if mn != 2 || j != 2 {
		t.Errorf("Min = %v@%d", mn, j)
	}
	u := Vector{1, 1}.AddScaled(2, Vector{3, 4})
	if u[0] != 7 || u[1] != 9 {
		t.Errorf("AddScaled = %v", u)
	}
	u.Scale(0.5)
	if u[0] != 3.5 {
		t.Errorf("Scale = %v", u)
	}
	var empty Vector
	if empty.Mean() != 0 || empty.NormInf() != 0 {
		t.Errorf("empty vector stats should be zero")
	}
}

func TestVectorMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Max of empty vector should panic")
		}
	}()
	Vector{}.Max()
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Add(0, 2, 3)
	if m.At(0, 2) != 5 {
		t.Errorf("At(0,2) = %v", m.At(0, 2))
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 0) != 5 {
		t.Errorf("Transpose wrong: %+v", tr)
	}
	id := identity(3)
	if !id.IsSymmetric(0) {
		t.Errorf("identity should be symmetric")
	}
	y, err := id.MulVec(Vector{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if y[2] != 3 {
		t.Errorf("I·x = %v", y)
	}
	if _, err := id.MulVec(Vector{1}); err == nil {
		t.Errorf("MulVec dimension mismatch should error")
	}
	if _, err := m.Mul(m); err == nil {
		t.Errorf("Mul 2x3 by 2x3 should error")
	}
	p, err := m.Mul(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 2 || p.Cols != 2 {
		t.Errorf("Mul shape %dx%d", p.Rows, p.Cols)
	}
	if got := m.MaxAbs(); got != 5 {
		t.Errorf("MaxAbs = %v", got)
	}
}

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// randomSPD builds a random symmetric positive-definite matrix B·Bᵀ + n·I.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	bt := b.Transpose()
	spd, err := b.Mul(bt)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n))
	}
	return spd
}

// denseEnvelope factors a dense SPD matrix through the envelope
// Cholesky under the natural ordering, where the envelope is the whole
// lower triangle.
func denseEnvelope(a *Matrix) (*EnvelopeCholesky, error) {
	c, err := NewCSRFromDense(a, 0)
	if err != nil {
		return nil, err
	}
	return NewEnvelopeCholesky(c, nil)
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randomSPD(n, rng)
		ch, err := denseEnvelope(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ch.Bandwidth() != n-1 || ch.Profile() != n*(n+1)/2 {
			t.Fatalf("n=%d: Bandwidth %d, Profile %d", n, ch.Bandwidth(), ch.Profile())
		}
		want := NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		got, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		ch.SolveInPlace(got)
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyErrors(t *testing.T) {
	if _, err := denseEnvelope(NewMatrix(2, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("non-square: %v", err)
	}
	notSPD := NewMatrix(2, 2)
	notSPD.Set(0, 0, 1)
	notSPD.Set(1, 1, -1)
	if _, err := denseEnvelope(notSPD); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite matrix: %v", err)
	}
	// Non-finite entries are rejected at a pivot, never factored.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for _, at := range [][2]int{{0, 0}, {1, 0}} {
			m := identity(3)
			m.Set(at[0], at[1], v)
			m.Set(at[1], at[0], v)
			if _, err := denseEnvelope(m); !errors.Is(err, ErrNotSPD) {
				t.Errorf("%v at %v: %v", v, at, err)
			}
		}
	}
	ch, err := denseEnvelope(identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SolveBatchInPlace([]Vector{{1}}); !errors.Is(err, ErrDimension) {
		t.Errorf("rhs size mismatch: %v", err)
	}
}

// TestCholeskyInverse checks A·A⁻¹ = I with A⁻¹ solved in band-order
// panels through SolveBandInPlace.
func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 40 spans several inverse panels, the last one partial.
	for _, n := range []int{8, 40} {
		a := randomSPD(n, rng)
		ch, err := denseEnvelope(a)
		if err != nil {
			t.Fatal(err)
		}
		inv := bandInverse(t, ch)
		prod, err := a.Mul(inv)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEqual(prod.At(i, j), want, 1e-8) {
					t.Fatalf("n=%d: A·A⁻¹[%d,%d] = %v", n, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestLUSolveAndDet(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}}
	for i, row := range vals {
		for j, x := range row {
			a.Set(i, j, x)
		}
	}
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{1, -2, 3}
	b, err := a.MulVec(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lu.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-9) {
			t.Fatalf("x = %v, want %v", got, want)
		}
	}
	if _, err := lu.Solve(Vector{1}); err == nil {
		t.Errorf("rhs mismatch should error")
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := NewLU(a); err == nil {
		t.Errorf("singular matrix should error")
	}
	if _, err := NewLU(NewMatrix(2, 3)); err == nil {
		t.Errorf("non-square should error")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Fit y = 2 + 3x exactly through noiseless points.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := NewVector(len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	coef, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(coef[0], 2, 1e-9) || !almostEqual(coef[1], 3, 1e-9) {
		t.Errorf("coef = %v", coef)
	}
}

func TestSolveLeastSquaresErrors(t *testing.T) {
	if _, err := SolveLeastSquares(NewMatrix(2, 3), NewVector(2)); err == nil {
		t.Errorf("underdetermined should error")
	}
	if _, err := SolveLeastSquares(NewMatrix(3, 2), NewVector(2)); err == nil {
		t.Errorf("rhs mismatch should error")
	}
	// Rank-deficient design: duplicate columns.
	a := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 1, 1)
	}
	if _, err := SolveLeastSquares(a, NewVector(3)); err == nil {
		t.Errorf("rank-deficient design should error")
	}
}

// Property: for random SPD systems, the envelope Cholesky solve residual
// is tiny.
func TestCholeskyResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		a := randomSPD(n, r)
		ch, err := denseEnvelope(a)
		if err != nil {
			return false
		}
		b := NewVector(n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x := b.Clone()
		ch.SolveInPlace(x)
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		return ax.AddScaled(-1, b).NormInf() <= 1e-7*(1+b.NormInf())
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: transposing twice is the identity.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		tt := m.Transpose().Transpose()
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCholeskyFactor200(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randomSPD(200, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := denseEnvelope(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(200, rng)
	ch, err := denseEnvelope(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := NewVector(200)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := rhs.Clone()
		ch.SolveInPlace(x)
	}
}
