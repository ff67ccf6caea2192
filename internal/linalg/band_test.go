package linalg

import (
	"errors"
	"fmt"
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

// fullSweepSolve is the reference solve: the envelope sweep with no
// zero-prefix skip, every row from row 0, one vector at a time. It is
// kept here, apart from the production kernel, so the skipping sweep is
// pinned against arithmetic that cannot skip.
func fullSweepSolve(e *EnvelopeCholesky, b Vector) Vector {
	y := make([]float64, e.n)
	for k, oi := range e.perm {
		y[k] = b[oi]
	}
	for i := 0; i < e.n; i++ {
		row := e.low[e.ptr[i]:e.ptr[i+1]]
		y[i] = (y[i] - envDot(row, y[e.lo[i]:])) * e.rdiag[i]
	}
	for i := e.n - 1; i >= 0; i-- {
		row := e.low[e.ptr[i]:e.ptr[i+1]]
		v := y[i] * e.rdiag[i]
		y[i] = v
		envAxpy(y[e.lo[i]:], row, v)
	}
	x := NewVector(e.n)
	for k, oi := range e.perm {
		x[oi] = y[k]
	}
	return x
}

// sameBits fails the test unless got and want agree bit for bit,
// including the sign of zero.
func sameBits(t *testing.T, what string, got, want Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d is %v (%#x), full sweep gives %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSweepZeroPrefixExact pins the forward sweep's zero-prefix skip
// against fullSweepSolve bit for bit: batches of 1–17 right-hand sides
// whose band-order prefixes are runs of +0 and −0 of different lengths,
// one of them entirely zero, under the natural and the profile ordering,
// through SolveInPlace, SolveBatchInPlace and SolveBandInPlace.
func TestSweepZeroPrefixExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mats := map[string]*CSR{"random": randomSPDCSR(rng, 60, 0.1), "grid": gridSPDCSR(12, 9)}
	for name, a := range mats {
		for _, perm := range [][]int{nil, ProfileOrder(a)} {
			e, err := NewEnvelopeCholesky(a, perm)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k := 1; k <= 17; k++ {
				batch := make([]Vector, k)
				for c := range batch {
					b := NewVector(a.N)
					// Column 0 is all zeros when the batch has company;
					// the others start at a random band row, the rows
					// above it a random mix of +0 and −0.
					start := rng.Intn(a.N)
					if c == 0 && k > 1 {
						start = a.N
					}
					for kk, oi := range e.perm {
						switch {
						case kk < start && rng.Intn(2) == 0:
							b[oi] = math.Copysign(0, -1)
						case kk >= start:
							b[oi] = rng.NormFloat64()
						}
					}
					batch[c] = b
				}
				want := make([]Vector, k)
				single := make([]Vector, k)
				band := make([]Vector, k)
				for c, b := range batch {
					want[c] = fullSweepSolve(e, b)
					single[c] = b.Clone()
					e.SolveInPlace(single[c])
					band[c] = NewVector(a.N)
					for i, v := range b {
						band[c][e.BandRow(i)] = v
					}
				}
				if err := e.SolveBatchInPlace(batch); err != nil {
					t.Fatal(err)
				}
				if err := e.SolveBandInPlace(band); err != nil {
					t.Fatal(err)
				}
				for c := range batch {
					what := fmt.Sprintf("%s perm=%v k=%d col %d", name, perm != nil, k, c)
					sameBits(t, what+" batch", batch[c], want[c])
					sameBits(t, what+" solo", single[c], want[c])
					unband := NewVector(a.N)
					for i := range unband {
						unband[i] = band[c][e.BandRow(i)]
					}
					sameBits(t, what+" band", unband, want[c])
				}
			}
			if err := e.SolveBandInPlace([]Vector{NewVector(a.N - 1)}); !errors.Is(err, ErrDimension) {
				t.Errorf("%s: short band column: %v", name, err)
			}
		}
	}
}

// bandInverse returns A⁻¹ for e's matrix by solving the band-order unit
// vectors through SolveBandInPlace in panels of PanelWidth, the way the
// thermal influence matrix solves its columns: panel k0…k0+15 holds the
// unit vectors of band rows k0…k0+15, so its forward sweep skips its
// first k0 rows.
func bandInverse(t *testing.T, e *EnvelopeCholesky) *Matrix {
	t.Helper()
	n := e.n
	inv := NewMatrix(n, n)
	for k0 := 0; k0 < n; k0 += PanelWidth {
		panel := make([]Vector, min(PanelWidth, n-k0))
		for c := range panel {
			panel[c] = NewVector(n)
			panel[c][k0+c] = 1
		}
		if err := e.SolveBandInPlace(panel); err != nil {
			t.Fatal(err)
		}
		for c, y := range panel {
			j := e.perm[k0+c]
			for k, v := range y {
				inv.Data[e.perm[k]*n+j] = v
			}
		}
	}
	return inv
}

// TestEnvelopeCholeskyPanel checks that a panel of band-order unit
// vectors solved through one SolveBandInPlace call (here two full panels
// and a partial one), whose forward sweep skips the panel's zero prefix,
// is bit-identical to the full sweep of each e_j alone.
func TestEnvelopeCholeskyPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPDCSR(rng, 2*PanelWidth+5, 0.1)
	e, err := NewEnvelopeCholesky(a, ProfileOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	inv := bandInverse(t, e)
	unit := NewVector(a.N)
	got := NewVector(a.N)
	for j := 0; j < a.N; j++ {
		unit.Fill(0)
		unit[j] = 1
		for i := range got {
			got[i] = inv.At(i, j)
		}
		sameBits(t, fmt.Sprintf("inverse column %d", j), got, fullSweepSolve(e, unit))
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
	if e.Profile() != 2*n-1 {
		t.Errorf("profile %d; want %d", e.Profile(), 2*n-1)
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
	chol, err := denseEnvelope(identity(3))
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
