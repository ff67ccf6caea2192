package linalg

import (
	"math"
	"testing"
)

// laplacian1D builds the SPD tridiagonal system of a 1-D heat chain with
// a grounded end — the simplest conductance-matrix shape.
func laplacian1D(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 2.5)
		if i > 0 {
			m.Set(i, i-1, -1)
		}
		if i+1 < n {
			m.Set(i, i+1, -1)
		}
	}
	return m
}

func TestNewCSRFromDense(t *testing.T) {
	m := laplacian1D(5)
	c, err := NewCSRFromDense(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 5 {
		t.Errorf("N = %d", c.N)
	}
	// Tridiagonal: 3n−2 nonzeros.
	if len(c.Val) != 13 {
		t.Errorf("NNZ = %d, want 13", len(c.Val))
	}
	if _, err := NewCSRFromDense(NewMatrix(2, 3), 0); err == nil {
		t.Errorf("non-square should error")
	}
	// Drop tolerance prunes small entries.
	m.Set(0, 4, 1e-15)
	pruned, err := NewCSRFromDense(m, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Val) != 13 {
		t.Errorf("tiny entry not dropped: NNZ = %d", len(pruned.Val))
	}
}

func TestCSRBuilder(t *testing.T) {
	b := NewCSRBuilder(3)
	// Out-of-order and duplicate entries: duplicates must merge.
	b.Add(1, 2, 1)
	b.Add(0, 0, 2)
	b.Add(1, 0, -1)
	b.Add(1, 2, 3)
	b.Add(2, 2, 4)
	b.Add(1, 1, 5)
	c := b.Build()
	if len(c.Val) != 5 {
		t.Fatalf("NNZ = %d, want 5 after merging", len(c.Val))
	}
	// Columns ascend within each row.
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i] + 1; k < c.RowPtr[i+1]; k++ {
			if c.Col[k-1] >= c.Col[k] {
				t.Fatalf("row %d columns not ascending: %v", i, c.Col[c.RowPtr[i]:c.RowPtr[i+1]])
			}
		}
	}
	d := c.Dense()
	want := [][]float64{{2, 0, 0}, {-1, 5, 4}, {0, 0, 4}}
	for i := range want {
		for j := range want[i] {
			if d.At(i, j) != want[i][j] {
				t.Errorf("dense[%d][%d] = %v, want %v", i, j, d.At(i, j), want[i][j])
			}
		}
	}
	// Round trip through NewCSRFromDense matches the builder output.
	back, err := NewCSRFromDense(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Val) != len(c.Val) {
		t.Errorf("round trip NNZ %d vs %d", len(back.Val), len(c.Val))
	}
	// Out-of-range panics.
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range Add should panic")
		}
	}()
	b.Add(0, 3, 1)
}

func TestCSRTransposeAndSymmetry(t *testing.T) {
	b := NewCSRBuilder(3)
	b.Add(0, 1, 2)
	b.Add(2, 0, -3)
	b.Add(1, 1, 1)
	c := b.Build()
	tr := c.Transpose()
	d, dt := c.Dense(), tr.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d.At(i, j) != dt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if c.IsSymmetric(1e-12) {
		t.Errorf("asymmetric matrix reported symmetric")
	}
	sym, err := NewCSRFromDense(laplacian1D(6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sym.IsSymmetric(1e-12) {
		t.Errorf("laplacian should be symmetric")
	}
}

func TestCSRAddDiagonal(t *testing.T) {
	a, err := NewCSRFromDense(laplacian1D(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := Vector{1, 2, 3, 4}
	shifted, err := a.AddDiagonal(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := shifted.Dense().At(i, i); got != 2.5+d[i] {
			t.Errorf("diag[%d] = %v", i, got)
		}
	}
	// The original is untouched (values copied, pattern shared).
	if a.Dense().At(0, 0) != 2.5 {
		t.Errorf("AddDiagonal mutated the receiver")
	}
	if _, err := a.AddDiagonal(Vector{1}); err == nil {
		t.Errorf("length mismatch should error")
	}
	// A row without a stored diagonal is rejected.
	b := NewCSRBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 0, 1)
	if _, err := b.Build().AddDiagonal(Vector{1, 1}); err == nil {
		t.Errorf("missing diagonal should error")
	}
}

func TestCSRMulVec(t *testing.T) {
	m := laplacian1D(6)
	c, err := NewCSRFromDense(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := Vector{1, 2, 3, 4, 5, 6}
	dense, err := m.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := c.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense {
		if math.Abs(dense[i]-sparse[i]) > 1e-12 {
			t.Fatalf("MulVec differs at %d", i)
		}
	}
	if _, err := c.MulVec(Vector{1}, nil); err == nil {
		t.Errorf("bad x size should error")
	}
	if _, err := c.MulVec(x, Vector{1}); err == nil {
		t.Errorf("bad y size should error")
	}
}
