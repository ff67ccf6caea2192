package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// FuzzCSRMulVec differentially tests the sparse kernel against the dense
// one: a fuzzed byte string is decoded into a small dense matrix and a
// vector, converted to CSR both via NewCSRFromDense and via CSRBuilder,
// and all three products must agree. This pins the CSR layout invariants
// (RowPtr monotonicity, ascending columns, duplicate merging) that the
// thermal assembly path depends on.
func FuzzCSRMulVec(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{1, 0})
	f.Add([]byte{5, 0xFF, 0x00, 0x80, 0x7F, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%6 + 1
		data = data[1:]
		// Decode bytes into matrix entries; 0 encodes a structural zero so
		// the fuzzer explores sparsity patterns.
		at := func(k int) float64 {
			if k >= len(data) || data[k] == 0 {
				return 0
			}
			return (float64(data[k]) - 128) / 8
		}
		m := NewMatrix(n, n)
		b := NewCSRBuilder(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := at(i*n + j)
				if v != 0 {
					m.Set(i, j, v)
					// Split the value across two builder entries to
					// exercise duplicate merging.
					b.Add(i, j, v/2)
					b.Add(i, j, v/2)
				}
			}
		}
		x := NewVector(n)
		for i := range x {
			x[i] = at(n*n + i)
		}
		want, err := m.MulVec(x)
		if err != nil {
			t.Fatalf("dense MulVec: %v", err)
		}
		for _, c := range []*CSR{
			mustCSR(t, m),
			b.Build(),
		} {
			if err := checkCSRInvariants(c); err != nil {
				t.Fatalf("CSR invariants: %v", err)
			}
			got, err := c.MulVec(x, nil)
			if err != nil {
				t.Fatalf("sparse MulVec: %v", err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("MulVec differs at %d: dense %v sparse %v", i, want[i], got[i])
				}
			}
			// Transpose twice is the identity on the product.
			tt := c.Transpose().Transpose()
			got2, err := tt.MulVec(x, nil)
			if err != nil {
				t.Fatalf("transpose MulVec: %v", err)
			}
			for i := range want {
				if math.Abs(got2[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("double transpose changed the product at %d", i)
				}
			}
		}
	})
}

// FuzzEnvelopeSolve drives the envelope Cholesky with thermal-shaped
// inputs: fuzzed bytes become a layered grid (1–3 layers of up to 6×6
// cells, each layer coupled cell by cell to the one below, the bottom
// layer tied to ambient), factored under the profile or a fuzzed
// ordering. Mode bits cut the ambient tie (every node disconnected from
// ground, so the matrix is singular) or plant a NaN or infinite entry.
// The factorization must return a typed error or a factor whose solves
// have a small backward error, never panic, and a batch of 1–4
// right-hand sides must match single solves bit for bit.
func FuzzEnvelopeSolve(f *testing.F) {
	f.Add([]byte{4, 3, 2, 0, 2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Add([]byte{1, 1, 1, 1, 1, 0xFF})
	f.Add([]byte{6, 6, 3, 2, 4, 0x80, 0x7F, 0x01, 0xFE, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 22, 33})
	f.Add([]byte{5, 2, 2, 3, 3, 7, 7, 7})
	f.Add([]byte{3, 4, 2, 4, 1, 200, 100, 50, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nx, ny, layers := int(data[0])%6+1, int(data[1])%6+1, int(data[2])%3+1
		mode, k := int(data[3])%5, int(data[4])%4+1
		data = data[5:]
		// at maps the byte stream to positive weights in (0, 32].
		idx := 0
		at := func() float64 {
			v := 1.0
			if idx < len(data) {
				v = float64(data[idx])/8 + 0.125
			}
			idx++
			return v
		}
		per := nx * ny
		n := per * layers
		b := NewCSRBuilder(n)
		pair := func(i, j int, g float64) {
			b.Add(i, i, g)
			b.Add(j, j, g)
			b.Add(i, j, -g)
			b.Add(j, i, -g)
		}
		for l := 0; l < layers; l++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					i := l*per + y*nx + x
					if x+1 < nx {
						pair(i, i+1, at())
					}
					if y+1 < ny {
						pair(i, i+nx, at())
					}
					if l+1 < layers {
						pair(i, i+per, at())
					} else if mode != 1 { // mode 1: no path to ambient
						b.Add(i, i, at())
					}
				}
			}
		}
		if mode == 2 || mode == 3 {
			bad := math.NaN()
			if mode == 3 {
				bad = math.Inf(1)
			}
			i, j := int(at())%n, int(at())%n
			b.Add(i, j, bad)
			b.Add(j, i, bad)
		}
		a := b.Build()
		if err := checkCSRInvariants(a); err != nil {
			t.Fatalf("CSR invariants: %v", err)
		}
		perm := ProfileOrder(a)
		if mode == 4 {
			// A fuzzed ordering: rotate the profile order.
			r := int(at()) % n
			perm = append(perm[r:], perm[:r]...)
		}
		e, err := NewEnvelopeCholesky(a, perm)
		if mode == 2 || mode == 3 {
			if !errors.Is(err, ErrNotSPD) {
				t.Fatalf("non-finite entry: err = %v, want ErrNotSPD", err)
			}
			return
		}
		if err != nil {
			if mode != 1 || !errors.Is(err, ErrNotSPD) {
				t.Fatalf("factorization: %v", err)
			}
			return
		}
		anorm := 0.0
		for i := 0; i < n; i++ {
			s := 0.0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				s += math.Abs(a.Val[p])
			}
			anorm = max(anorm, s)
		}
		rhs := make([]Vector, k)
		single := make([]Vector, k)
		for c := range rhs {
			rhs[c] = NewVector(n)
			for i := range rhs[c] {
				rhs[c][i] = at() - 16
			}
			single[c] = rhs[c].Clone()
		}
		batch := make([]Vector, k)
		for c := range rhs {
			batch[c] = rhs[c].Clone()
		}
		if err := e.SolveBatchInPlace(batch); err != nil {
			t.Fatalf("batch solve: %v", err)
		}
		for c := range rhs {
			e.SolveInPlace(single[c])
			for i := range single[c] {
				if math.Float64bits(batch[c][i]) != math.Float64bits(single[c][i]) {
					t.Fatalf("col %d row %d: batch %v != single %v", c, i, batch[c][i], single[c][i])
				}
			}
			// Backward error: Cholesky is backward stable, so even a
			// near-singular (disconnected) system that factors must
			// satisfy ‖A·x − b‖ ≤ tol·(‖A‖·‖x‖ + ‖b‖).
			ax, err := a.MulVec(single[c], nil)
			if err != nil {
				t.Fatal(err)
			}
			res := ax.AddScaled(-1, rhs[c]).NormInf()
			bound := 1e-10 * float64(n) * (anorm*single[c].NormInf() + rhs[c].NormInf())
			if !(res <= bound) {
				t.Fatalf("col %d: residual %g over bound %g (mode %d, n=%d)", c, res, bound, mode, n)
			}
		}
	})
}

func mustCSR(t *testing.T, m *Matrix) *CSR {
	t.Helper()
	c, err := NewCSRFromDense(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkCSRInvariants(c *CSR) error {
	if len(c.RowPtr) != c.N+1 || c.RowPtr[0] != 0 || c.RowPtr[c.N] != len(c.Col) || len(c.Col) != len(c.Val) {
		return fmt.Errorf("layout: rowptr %d nnz %d/%d", len(c.RowPtr), len(c.Col), len(c.Val))
	}
	for i := 0; i < c.N; i++ {
		if c.RowPtr[i] > c.RowPtr[i+1] {
			return fmt.Errorf("rowptr not monotone at %d", i)
		}
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			if c.Col[k] < 0 || c.Col[k] >= c.N {
				return fmt.Errorf("column out of range at %d", k)
			}
			if k > c.RowPtr[i] && c.Col[k-1] >= c.Col[k] {
				return fmt.Errorf("columns not strictly ascending in row %d", i)
			}
		}
	}
	return nil
}
