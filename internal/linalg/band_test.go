package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSPDCSR builds an n×n strictly diagonally dominant symmetric
// matrix (hence SPD) in CSR form with the given off-diagonal density.
func randomSPDCSR(rng *rand.Rand, n int, density float64) *CSR {
	b := NewCSRBuilder(n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := 2*rng.Float64() - 1
				b.Add(i, j, v)
				b.Add(j, i, v)
				rowAbs[i] += math.Abs(v)
				rowAbs[j] += math.Abs(v)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return b.Build()
}

// gridSPDCSR builds the 5-point Laplacian of an nx×ny grid plus a small
// diagonal shift — the structure the thermal models produce, and the one
// profile orderings are designed for.
func gridSPDCSR(nx, ny int) *CSR {
	n := nx * ny
	b := NewCSRBuilder(n)
	at := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := at(x, y)
			b.Add(i, i, 4.5)
			if x > 0 {
				b.Add(i, at(x-1, y), -1)
			}
			if x < nx-1 {
				b.Add(i, at(x+1, y), -1)
			}
			if y > 0 {
				b.Add(i, at(x, y-1), -1)
			}
			if y < ny-1 {
				b.Add(i, at(x, y+1), -1)
			}
		}
	}
	return b.Build()
}

func envelopeOf(a *CSR, order []int) int {
	inv := make([]int, a.N)
	for k, oi := range order {
		inv[oi] = k
	}
	total := 0
	for k, oi := range order {
		lo := k
		for e := a.RowPtr[oi]; e < a.RowPtr[oi+1]; e++ {
			if j := inv[a.Col[e]]; j < lo {
				lo = j
			}
		}
		total += k - lo + 1
	}
	return total
}

// TestProfileOrderPermutation checks the ordering is a permutation and
// actually shrinks the envelope of a grid numbered in a hostile order.
func TestProfileOrderPermutation(t *testing.T) {
	a := gridSPDCSR(20, 30)
	order := ProfileOrder(a)
	if len(order) != a.N {
		t.Fatalf("order has %d entries for %d nodes", len(order), a.N)
	}
	seen := make([]bool, a.N)
	for _, v := range order {
		if v < 0 || v >= a.N || seen[v] {
			t.Fatalf("order is not a permutation: %v at fault", v)
		}
		seen[v] = true
	}
	natural := make([]int, a.N)
	for i := range natural {
		natural[i] = i
	}
	// Row-major numbering of a 20-wide grid already has a tight band;
	// shuffle it to give the heuristic something hostile.
	rng := rand.New(rand.NewSource(5))
	shuffled := rng.Perm(a.N)
	if got, bad := envelopeOf(a, order), envelopeOf(a, shuffled); got >= bad {
		t.Errorf("profile order envelope %d not below shuffled %d", got, bad)
	}
	if got, nat := envelopeOf(a, order), envelopeOf(a, natural); got > nat {
		t.Errorf("profile order envelope %d worse than natural row-major %d", got, nat)
	}
}

// TestProfileOrderDisconnected covers multiple components, including an
// isolated node.
func TestProfileOrderDisconnected(t *testing.T) {
	b := NewCSRBuilder(7)
	// Component {0,1,2} chain, component {3,4,5} chain, isolated 6.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		b.Add(e[0], e[0], 3)
		b.Add(e[1], e[1], 3)
		b.Add(e[0], e[1], -1)
		b.Add(e[1], e[0], -1)
	}
	b.Add(6, 6, 3)
	a := b.Build()
	order := ProfileOrder(a)
	seen := make([]bool, a.N)
	for _, v := range order {
		if v < 0 || v >= a.N || seen[v] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[v] = true
	}
}

// TestEnvelopeCholeskyExact pins the factorization against dense ground
// truth: the solve is exact, so A·(A⁻¹·r) must equal r to roundoff —
// under both the natural and the profile ordering.
func TestEnvelopeCholeskyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 17, 60} {
		a := randomSPDCSR(rng, n, 0.2)
		for _, perm := range [][]int{nil, ProfileOrder(a)} {
			e, err := NewEnvelopeCholesky(a, perm)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			r := NewVector(n)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			z := r.Clone()
			e.SolveInPlace(z)
			back := NewVector(n)
			a.MulVec(z, back)
			for i := range r {
				if math.Abs(back[i]-r[i]) > 1e-9*(1+math.Abs(r[i])) {
					t.Fatalf("n=%d perm=%v: A·A⁻¹·r differs at %d: %v vs %v", n, perm != nil, i, back[i], r[i])
				}
			}
		}
	}
}

// TestEnvelopeCholeskyPanel checks that Inverse, which solves the unit
// columns in panels through the batched sweep (here two full panels and
// a partial one), is bit-identical to solving each unit column alone.
func TestEnvelopeCholeskyPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPDCSR(rng, 2*inversePanel+5, 0.1)
	e, err := NewEnvelopeCholesky(a, ProfileOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	inv := e.Inverse()
	col := NewVector(a.N)
	for j := 0; j < a.N; j++ {
		col.Fill(0)
		col[j] = 1
		e.SolveInPlace(col)
		for i, v := range col {
			if inv.At(i, j) != v {
				t.Fatalf("column %d differs at %d: panel %v vs single %v", j, i, inv.At(i, j), v)
			}
		}
	}
}

// TestEnvelopeCholeskyErrors covers the rejection paths: bad orderings
// and non-SPD input (indefinite, or a disconnected node with no diagonal
// weight).
func TestEnvelopeCholeskyErrors(t *testing.T) {
	a := gridSPDCSR(6, 6)
	if _, err := NewEnvelopeCholesky(a, []int{0, 1}); !errors.Is(err, ErrDimension) {
		t.Errorf("short ordering: %v", err)
	}
	bad := make([]int, a.N)
	if _, err := NewEnvelopeCholesky(a, bad); !errors.Is(err, ErrOptions) {
		t.Errorf("duplicate ordering: %v", err)
	}
	// An indefinite matrix must be rejected at the pivot.
	b := NewCSRBuilder(2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 5)
	b.Add(1, 0, 5)
	b.Add(1, 1, 1)
	if _, err := NewEnvelopeCholesky(b.Build(), nil); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite matrix: %v", err)
	}
	// A node with no coupling at all has a zero pivot.
	d := NewCSRBuilder(3)
	d.Add(0, 0, 2)
	d.Add(2, 2, 2)
	if _, err := NewEnvelopeCholesky(d.Build(), nil); !errors.Is(err, ErrNotSPD) {
		t.Errorf("isolated zero node: %v", err)
	}
}

// TestEnvelopeCholeskyExactOnTridiagonal pins the storage on the
// simplest envelope: a tridiagonal SPD matrix stores one subdiagonal
// entry per row, and the solve reproduces a known solution.
func TestEnvelopeCholeskyExactOnTridiagonal(t *testing.T) {
	const n = 30
	a, err := NewCSRFromDense(laplacian1D(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnvelopeCholesky(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bandwidth() != 1 || e.Profile() != 2*n-1 {
		t.Errorf("bandwidth %d, profile %d; want 1 and %d", e.Bandwidth(), e.Profile(), 2*n-1)
	}
	want := NewVector(n)
	for i := range want {
		want[i] = float64(i%5) - 2
	}
	x, err := a.MulVec(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SolveInPlace(x)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

// TestEnvelopeMatchesDenseLU is the differential against the independent
// oracle: on random SPD matrices the profile-ordered envelope solve and
// a dense partial-pivoting LU agree to 1e-9.
func TestEnvelopeMatchesDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(40)
		a := randomSPDCSR(rng, n, 0.15)
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := NewLU(a.Dense())
		if err != nil {
			t.Fatal(err)
		}
		want, err := lu.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEnvelopeCholesky(a, ProfileOrder(a))
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		e.SolveInPlace(b)
		for i := range want {
			if math.Abs(b[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d (n=%d): solvers disagree at %d: %v vs %v", trial, n, i, b[i], want[i])
			}
		}
	}
}

// TestSparsePreconditionedMatchesDenseCholesky checks that exploiting
// sparsity does not change the answer: on random sparse SPD matrices the
// envelope factor under the profile ordering (the sparse factor that
// once preconditioned CG and now solves outright) agrees to 1e-9 with
// the dense Cholesky, the factor of the whole lower triangle in natural
// order.
func TestSparsePreconditionedMatchesDenseCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(40)
		a := randomSPDCSR(rng, n, 0.1)
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		// A negative drop tolerance keeps every entry, zeros included,
		// so the natural-order envelope is the whole lower triangle.
		full, err := NewCSRFromDense(a.Dense(), -1)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewEnvelopeCholesky(full, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dense.Profile() != n*(n+1)/2 {
			t.Fatalf("trial %d (n=%d): dense profile %d, want %d", trial, n, dense.Profile(), n*(n+1)/2)
		}
		want := b.Clone()
		dense.SolveInPlace(want)
		sparse, err := NewEnvelopeCholesky(a, ProfileOrder(a))
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if sparse.Profile() > dense.Profile() {
			t.Errorf("trial %d (n=%d): sparse profile %d exceeds dense %d", trial, n, sparse.Profile(), dense.Profile())
		}
		sparse.SolveInPlace(b)
		for i := range want {
			if math.Abs(b[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d (n=%d): solvers disagree at %d: %v vs %v", trial, n, i, b[i], want[i])
			}
		}
	}
}
