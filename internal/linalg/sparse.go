package linalg

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix. Thermal conductance matrices are
// extremely sparse (≈7 nonzeros per row: self, 4 lateral neighbours, up
// and down), so they are assembled and factored from this form and never
// materialized densely. Column indices are ascending within each row.
type CSR struct {
	N      int
	RowPtr []int // len N+1
	Col    []int
	Val    []float64
}

// CSRBuilder accumulates coordinate-format entries and assembles them
// into a CSR matrix. Duplicate (i, j) entries are summed in insertion
// order, which makes the assembly deterministic (and, for the thermal
// conductance matrices, bit-identical to the historical dense
// accumulation). This is the primary assembly path: producers build
// directly into sparse form and never materialize an n×n dense matrix.
type CSRBuilder struct {
	n    int
	rows [][]csrEntry
}

type csrEntry struct {
	col int
	val float64
}

// NewCSRBuilder returns a builder for an n×n matrix.
func NewCSRBuilder(n int) *CSRBuilder {
	return &CSRBuilder{n: n, rows: make([][]csrEntry, n)}
}

// Add accumulates v into entry (i, j). It panics on out-of-range indices,
// mirroring dense Matrix indexing.
func (b *CSRBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: CSRBuilder.Add(%d, %d) on %d×%d", i, j, b.n, b.n))
	}
	b.rows[i] = append(b.rows[i], csrEntry{col: j, val: v})
}

// Build assembles the accumulated entries into a CSR matrix with
// ascending column order per row. The builder can be reused afterwards,
// but entries already added remain.
func (b *CSRBuilder) Build() *CSR {
	c := &CSR{N: b.n, RowPtr: make([]int, b.n+1)}
	var nnz int
	for _, row := range b.rows {
		nnz += len(row) // upper bound before merging
	}
	c.Col = make([]int, 0, nnz)
	c.Val = make([]float64, 0, nnz)
	for i, row := range b.rows {
		// Stable sort keeps duplicates in insertion order so their sum
		// is reproducible.
		sort.SliceStable(row, func(a, b int) bool { return row[a].col < row[b].col })
		for k := 0; k < len(row); {
			col, sum := row[k].col, row[k].val
			for k++; k < len(row) && row[k].col == col; k++ {
				sum += row[k].val
			}
			c.Col = append(c.Col, col)
			c.Val = append(c.Val, sum)
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c
}

// NewCSRFromDense converts a square dense matrix, dropping entries with
// |v| <= dropTol; NaN entries are kept, so a factorization rejects them. The thermal models assemble through CSRBuilder and
// never materialize a dense form; this serves small dense systems such as
// SolveLeastSquares' normal equations.
func NewCSRFromDense(m *Matrix, dropTol float64) (*CSR, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: CSR of %dx%d", ErrDimension, m.Rows, m.Cols)
	}
	c := &CSR{N: m.Rows, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if !(math.Abs(v) <= dropTol) { // NaN fails <= and is kept
				c.Col = append(c.Col, j)
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[i+1] = len(c.Col)
	}
	return c, nil
}

// Dense materializes the matrix in dense form. Intended for the small-n
// direct-solver path and for tests; it is the only place the n×n form is
// ever allocated.
func (c *CSR) Dense() *Matrix {
	m := NewMatrix(c.N, c.N)
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			m.Set(i, c.Col[k], c.Val[k])
		}
	}
	return m
}

// Transpose returns Aᵀ in CSR form (column indices ascending).
func (c *CSR) Transpose() *CSR {
	t := &CSR{N: c.N, RowPtr: make([]int, c.N+1)}
	counts := make([]int, c.N)
	for _, j := range c.Col {
		counts[j]++
	}
	for j := 0; j < c.N; j++ {
		t.RowPtr[j+1] = t.RowPtr[j] + counts[j]
	}
	t.Col = make([]int, len(c.Col))
	t.Val = make([]float64, len(c.Val))
	next := make([]int, c.N)
	copy(next, t.RowPtr[:c.N])
	// Row-major traversal writes each transposed row in ascending
	// original-row order, i.e. ascending column order of the transpose.
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			j := c.Col[k]
			t.Col[next[j]] = i
			t.Val[next[j]] = c.Val[k]
			next[j]++
		}
	}
	return t
}

// AddDiagonal returns a new matrix A + diag(d) sharing the sparsity
// pattern of A (RowPtr and Col are shared, values are copied). Every row
// must already store a diagonal entry; thermal conductance matrices
// always do.
func (c *CSR) AddDiagonal(d Vector) (*CSR, error) {
	if len(d) != c.N {
		return nil, fmt.Errorf("%w: AddDiagonal n=%d d=%d", ErrDimension, c.N, len(d))
	}
	out := &CSR{N: c.N, RowPtr: c.RowPtr, Col: c.Col, Val: make([]float64, len(c.Val))}
	copy(out.Val, c.Val)
	for i := 0; i < c.N; i++ {
		found := false
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			if c.Col[k] == i {
				out.Val[k] += d[i]
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("linalg: AddDiagonal: row %d has no stored diagonal", i)
		}
	}
	return out, nil
}

// IsSymmetric reports whether the matrix equals its transpose to within
// tol. Matrices whose sparsity pattern is itself asymmetric are reported
// as asymmetric even if the mismatched entries are within tol of zero.
func (c *CSR) IsSymmetric(tol float64) bool {
	t := c.Transpose()
	if len(t.Col) != len(c.Col) {
		return false
	}
	for i := range c.Col {
		if c.Col[i] != t.Col[i] || math.Abs(c.Val[i]-t.Val[i]) > tol {
			return false
		}
	}
	for i := range c.RowPtr {
		if c.RowPtr[i] != t.RowPtr[i] {
			return false
		}
	}
	return true
}

// MulVec computes y = A·x into the provided slice (allocated if nil).
func (c *CSR) MulVec(x, y Vector) (Vector, error) {
	if len(x) != c.N {
		return nil, fmt.Errorf("%w: CSR MulVec n=%d x=%d", ErrDimension, c.N, len(x))
	}
	if y == nil {
		y = NewVector(c.N)
	}
	if len(y) != c.N {
		return nil, fmt.Errorf("%w: CSR MulVec n=%d y=%d", ErrDimension, c.N, len(y))
	}
	for i := 0; i < c.N; i++ {
		s := 0.0
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Val[k] * x[c.Col[k]]
		}
		y[i] = s
	}
	return y, nil
}
