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

// Scale multiplies every element of v by alpha and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

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

// Min returns the minimum element and its index. It panics on empty input.
func (v Vector) Min() (float64, int) {
	if len(v) == 0 {
		panic("linalg: Min of empty vector")
	}
	best, at := v[0], 0
	for i, x := range v {
		if x < best {
			best, at = x, i
		}
	}
	return best, at
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v (0 for empty vectors).
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
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
