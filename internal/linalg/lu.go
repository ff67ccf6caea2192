package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when LU factorization meets a (numerically) zero
// pivot even after partial pivoting.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds a row-pivoted LU factorization P·A = L·U. It is the dense
// oracle the envelope Cholesky is tested against; the thermal path uses
// the envelope factor.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// NewLU factors the square matrix a with partial pivoting.
func NewLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrDimension, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := make([]float64, n*n)
	copy(lu, a.Data)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("%w: pivot column %d", ErrSingular, k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivVal
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv}, nil
}

// Solve returns x with A·x = b.
func (f *LU) Solve(b Vector) (Vector, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("%w: LU solve n=%d rhs=%d", ErrDimension, f.n, len(b))
	}
	n := f.n
	x := NewVector(n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// L·y = P·b (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= f.lu[i*n+k] * x[k]
		}
		x[i] = s
	}
	// U·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= f.lu[i*n+k] * x[k]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x, nil
}

// SolveLeastSquares solves the overdetermined system A·x ≈ b (A is m×n,
// m ≥ n) in the least-squares sense via the normal equations AᵀA·x = Aᵀb,
// factored with the envelope Cholesky (the envelope of a dense matrix is
// its whole lower triangle). The model-fitting problems in this code base
// are tiny and well conditioned, so normal equations are adequate.
func SolveLeastSquares(a *Matrix, b Vector) (Vector, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: least squares %dx%d rhs=%d", ErrDimension, a.Rows, a.Cols, len(b))
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("%w: underdetermined %dx%d", ErrDimension, a.Rows, a.Cols)
	}
	at := a.Transpose()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	sparse, err := NewCSRFromDense(ata, 0)
	if err != nil {
		return nil, err
	}
	ch, err := NewEnvelopeCholesky(sparse, nil)
	if err != nil {
		return nil, fmt.Errorf("linalg: normal equations not SPD (rank-deficient design?): %w", err)
	}
	ch.SolveInPlace(atb)
	return atb, nil
}
