// Package linalg implements the linear-algebra kernel the thermal solver
// needs: vectors, row-major dense matrices, CSR sparse matrices, an exact
// envelope Cholesky factorization with reusable single and batched
// solves, and a dense LU kept as an independent test oracle.
//
// The compact thermal RC model produces symmetric positive-definite
// conductance matrices of a few hundred to a few thousand unknowns. One
// factorization, computed once under a profile-reducing ordering and
// reused for many right-hand sides (steady-state maps, influence columns,
// implicit-Euler transient steps), serves every solve.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// AddScaled sets v = v + alpha*w and returns v.
func (v Vector) AddScaled(alpha float64, w Vector) Vector {
	for i := range v {
		v[i] += alpha * w[i]
	}
	return v
}

// NormInf returns the maximum absolute element of v (0 for empty vectors).
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Max returns the maximum element and its index. It panics on empty input
// because an empty maximum has no meaningful value.
func (v Vector) Max() (float64, int) {
	if len(v) == 0 {
		panic("linalg: Max of empty vector")
	}
	best, at := v[0], 0
	for i, x := range v {
		if x > best {
			best, at = x, i
		}
	}
	return best, at
}

// String renders the vector with 4-digit precision, for diagnostics.
func (v Vector) String() string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}
