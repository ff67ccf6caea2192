package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file implements the thermal solver's one factorization: an exact
// envelope (skyline) Cholesky under a profile-reducing ordering. The
// thermal RC matrices are layered grid graphs: under a Sloan ordering
// their envelope is narrow for grid rows and only widens locally where
// coarse layers overlap many fine cells. Cholesky
// fills nothing outside the envelope, so storing each row from its first
// nonzero to the diagonal captures the exact factor, and a solve is two
// triangular sweeps over it, O(nnz(L)).

// ErrNotSPD is returned when a Cholesky factorization meets a pivot that
// is not a finite positive number, i.e. the matrix is not (numerically)
// symmetric positive definite. Conductance matrices from well-formed RC
// networks are always SPD, so this error usually indicates a malformed
// thermal configuration (e.g. a node with no path to the ambient).
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// ErrOptions is returned for an ordering that is not a permutation.
var ErrOptions = errors.New("linalg: invalid options")

// sloanW1 and sloanW2 are the (distance, degree) weights of Sloan's
// priority. (1, 2) favours absorbing cheap nodes over Sloan's classic
// (2, 1) and stores about a fifth less on the layered thermal grids.
const sloanW1, sloanW2 = 1, 2

// ProfileOrder returns an envelope-reducing ordering of the symmetric
// sparsity graph of a: order[k] is the original index of the node placed
// at position k. Per connected component it finds a pseudo-peripheral
// pair of vertices (George–Liu), numbers the component by Sloan's
// heuristic starting from each end of the pair, and keeps the ordering
// that stores the smaller envelope. A single-node component is numbered
// as it stands.
func ProfileOrder(a *CSR) []int {
	n := a.N
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	order := make([]int, 0, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	mark := make([]bool, n)

	// bfs walks the unvisited component of root in Cuthill–McKee order
	// (neighbours by increasing degree) and returns its last level and
	// the BFS depth. The order within a level decides which vertex
	// minDegree picks among equals, and so the pinned orderings.
	bfs := func(root int) ([]int, int) {
		copy(mark, visited)
		level := []int{root}
		depth := 0
		mark[root] = true
		queue = append(queue[:0], root)
		start := 0
		for start < len(queue) {
			levelEnd := len(queue)
			for ; start < levelEnd; start++ {
				i := queue[start]
				nbrStart := len(queue)
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := a.Col[k]
					if j != i && !mark[j] {
						mark[j] = true
						queue = append(queue, j)
					}
				}
				nbr := queue[nbrStart:]
				sort.Slice(nbr, func(x, y int) bool {
					if deg[nbr[x]] != deg[nbr[y]] {
						return deg[nbr[x]] < deg[nbr[y]]
					}
					return nbr[x] < nbr[y]
				})
			}
			if levelEnd < len(queue) {
				level = queue[levelEnd:]
				depth++
			}
		}
		return level, depth
	}

	// minDegree returns the first vertex of minimum degree in level.
	minDegree := func(level []int) int {
		v := level[0]
		for _, w := range level {
			if deg[w] < deg[v] {
				v = w
			}
		}
		return v
	}

	// envelopeSize scores a component ordering by the number of lower-
	// envelope entries it would store; positions outside the component
	// cannot tighten a row (the component is connected), so scoring each
	// component independently is exact.
	envelopeSize := func(ord []int) int {
		inv := make([]int, n)
		for i := range inv {
			inv[i] = -1
		}
		for k, oi := range ord {
			inv[oi] = k
		}
		total := 0
		for k, oi := range ord {
			lo := k
			for e := a.RowPtr[oi]; e < a.RowPtr[oi+1]; e++ {
				if j := inv[a.Col[e]]; j >= 0 && j < lo {
					lo = j
				}
			}
			total += k - lo + 1
		}
		return total
	}

	// sloanOrder numbers the unvisited component holding s by Sloan's
	// profile-reduction heuristic: each step picks the candidate with the
	// best blend of "far from the end vertex e" (keeps the wavefront
	// moving) and "cheap to absorb" (small degree, many neighbours
	// already numbered). Statuses follow the classic scheme — inactive,
	// preactive (adjacent to the wavefront), active (adjacent to a
	// numbered node), postactive (numbered).
	const (
		sloanInactive = iota
		sloanPreactive
		sloanActive
		sloanPostactive
	)
	prio := make([]int, n)
	status := make([]int, n)
	sloanOrder := func(s, e int) []int {
		// Distance from e over the component, BFS.
		copy(mark, visited)
		dist := make(map[int]int)
		frontier := append(queue[:0], e)
		mark[e] = true
		dist[e] = 0
		for len(frontier) > 0 {
			next := frontier[:0:0]
			for _, i := range frontier {
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := a.Col[k]
					if j != i && !mark[j] {
						mark[j] = true
						dist[j] = dist[i] + 1
						next = append(next, j)
					}
				}
			}
			frontier = next
		}
		for v, d := range dist {
			prio[v] = sloanW1*d - sloanW2*(deg[v]+1)
			status[v] = sloanInactive
		}
		ord := make([]int, 0, len(dist))
		cand := append([]int(nil), s)
		status[s] = sloanPreactive
		for len(cand) > 0 {
			// Linear max scan; wavefronts are small next to n.
			bi := 0
			for i := 1; i < len(cand); i++ {
				if prio[cand[i]] > prio[cand[bi]] {
					bi = i
				}
			}
			v := cand[bi]
			cand[bi] = cand[len(cand)-1]
			cand = cand[:len(cand)-1]
			if status[v] == sloanPreactive {
				for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
					w := a.Col[k]
					if w == v {
						continue
					}
					prio[w] += sloanW2
					if status[w] == sloanInactive {
						status[w] = sloanPreactive
						cand = append(cand, w)
					}
				}
			}
			ord = append(ord, v)
			status[v] = sloanPostactive
			for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
				w := a.Col[k]
				if w == v || status[w] != sloanPreactive {
					continue
				}
				status[w] = sloanActive
				prio[w] += sloanW2
				for k2 := a.RowPtr[w]; k2 < a.RowPtr[w+1]; k2++ {
					u := a.Col[k2]
					if u == w || status[u] == sloanPostactive {
						continue
					}
					prio[u] += sloanW2
					if status[u] == sloanInactive {
						status[u] = sloanPreactive
						cand = append(cand, u)
					}
				}
			}
		}
		return ord
	}

	for seed := 0; seed < n; seed++ {
		if visited[seed] {
			continue
		}
		// Pseudo-peripheral pair: hop to the minimum-degree vertex of
		// the deepest BFS level while that deepens the level structure.
		// (bfs returns its last level inside queue, so each level is used
		// before the next walk.)
		root := seed
		last, depth := bfs(root)
		end := minDegree(last)
		for end != root {
			nextLast, d := bfs(end)
			if d <= depth {
				break
			}
			root, depth = end, d
			end = minDegree(nextLast)
		}
		best := []int{root}
		if end != root {
			best = sloanOrder(root, end)
			if cand := sloanOrder(end, root); envelopeSize(cand) < envelopeSize(best) {
				best = cand
			}
		}
		for _, v := range best {
			visited[v] = true
		}
		order = append(order, best...)
	}
	return order
}

// EnvelopeCholesky is the exact L·Lᵀ factorization of a symmetric
// positive definite matrix in envelope (skyline) storage under a
// caller-supplied ordering: row k of L is stored densely from its first
// nonzero column lo[k] up to, not including, the diagonal, and the
// diagonal is kept as reciprocals. Both triangular sweeps stream this
// one array — the forward sweep as a dot product per row, the backward
// sweep as an axpy per row — so a solve touches nnz(L) factor entries
// twice and the factor can stay cache-resident across solves.
// Immutable after construction; every solve method is safe for
// concurrent use (scratch comes from an internal pool).
type EnvelopeCholesky struct {
	n     int
	perm  []int     // band position k holds original index perm[k]
	inv   []int     // original index i sits at band position inv[i]
	lo    []int     // row k of L spans columns [lo[k], k)
	ptr   []int     // strict row k of L is low[ptr[k]:ptr[k+1]]
	low   []float64 // strict lower rows, packed back to back
	rdiag []float64 // 1 / L[k][k]
	pool  sync.Pool // *envWork
}

// envWork is one solve's band-space scratch, one vector per column.
type envWork struct{ ys []Vector }

// NewEnvelopeCholesky factors the SPD matrix a under the ordering perm
// (nil for the natural order). A pivot that is not a finite positive
// number returns ErrNotSPD, so NaN or infinite entries are rejected
// rather than factored.
func NewEnvelopeCholesky(a *CSR, perm []int) (*EnvelopeCholesky, error) {
	n := a.N
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	if len(perm) != n {
		return nil, fmt.Errorf("%w: ordering has %d entries for a %d-node matrix", ErrDimension, len(perm), n)
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for k, oi := range perm {
		if oi < 0 || oi >= n || inv[oi] != -1 {
			return nil, fmt.Errorf("%w: ordering is not a permutation of 0..%d", ErrOptions, n-1)
		}
		inv[oi] = k
	}
	lo := make([]int, n)
	for i := range lo {
		lo[i] = i
	}
	for i := 0; i < n; i++ {
		bi := inv[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			bj := inv[a.Col[k]]
			lo[bi] = min(lo[bi], bj)
			// Symmetry: an upper entry (bi < bj) widens row bj.
			lo[bj] = min(lo[bj], bi)
		}
	}
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + i - lo[i]
	}
	low := make([]float64, ptr[n])
	diag := make([]float64, n)
	for bi := 0; bi < n; bi++ {
		oi := perm[bi]
		for k := a.RowPtr[oi]; k < a.RowPtr[oi+1]; k++ {
			switch bj := inv[a.Col[k]]; {
			case bj < bi:
				low[ptr[bi]+bj-lo[bi]] = a.Val[k]
			case bj == bi:
				diag[bi] = a.Val[k]
			}
		}
	}
	// In-place envelope Cholesky: entry (i,j) subtracts the dot product
	// of rows i and j over their overlap [max(lo[i],lo[j]), j); no fill
	// occurs outside the envelope.
	rdiag := make([]float64, n)
	for i := 0; i < n; i++ {
		ri := low[ptr[i]:ptr[i+1]]
		li := lo[i]
		for j := li; j < i; j++ {
			rj := low[ptr[j]:ptr[j+1]]
			k0 := max(li, lo[j])
			ri[j-li] = (ri[j-li] - envDot(ri[k0-li:j-li], rj[k0-lo[j]:])) * rdiag[j]
		}
		s := diag[i] - envDot(ri, ri)
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("%w: envelope Cholesky pivot %d = %g", ErrNotSPD, i, s)
		}
		rdiag[i] = 1 / math.Sqrt(s)
	}
	return &EnvelopeCholesky{n: n, perm: perm, inv: inv, lo: lo, ptr: ptr, low: low, rdiag: rdiag}, nil
}

// Profile returns the number of stored factor entries, nnz(L).
func (e *EnvelopeCholesky) Profile() int { return len(e.low) + e.n }

// BandRow returns the band position of original index i. A right-hand
// side whose nonzeros all sit at band rows >= k is solved with a forward
// sweep that starts no earlier than row k.
func (e *EnvelopeCholesky) BandRow(i int) int { return e.inv[i] }

// envDot returns the dot product of a and x[:len(a)], unrolled
// eight-wide (with a four-wide tail) into independent accumulators so
// the multiply-add chains overlap instead of serializing on the FP add
// latency.
func envDot(a, x []float64) float64 {
	x = x[:len(a)] // one bounds check here buys check-free inner loops
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for len(a) >= 8 {
		aa, xx := a[:8:8], x[:8:8]
		s0 += aa[0] * xx[0]
		s1 += aa[1] * xx[1]
		s2 += aa[2] * xx[2]
		s3 += aa[3] * xx[3]
		s4 += aa[4] * xx[4]
		s5 += aa[5] * xx[5]
		s6 += aa[6] * xx[6]
		s7 += aa[7] * xx[7]
		a, x = a[8:], x[8:]
	}
	if len(a) >= 4 {
		aa, xx := a[:4:4], x[:4:4]
		s0 += aa[0] * xx[0]
		s1 += aa[1] * xx[1]
		s2 += aa[2] * xx[2]
		s3 += aa[3] * xx[3]
		a, x = a[4:], x[4:]
	}
	for i, v := range a {
		s0 += v * x[i]
	}
	return ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
}

// envAxpy computes y[:len(a)] -= v·a, unrolled four-wide.
func envAxpy(y, a []float64, v float64) {
	y = y[:len(a)]
	for len(a) >= 4 {
		aa, yy := a[:4:4], y[:4:4]
		yy[0] -= aa[0] * v
		yy[1] -= aa[1] * v
		yy[2] -= aa[2] * v
		yy[3] -= aa[3] * v
		a, y = a[4:], y[4:]
	}
	for i, w := range a {
		y[i] -= w * v
	}
}

// sweep solves L·Lᵀ·y = y in band space for every vector in ys: the
// forward sweep as one dot product per row, the backward sweep as one
// axpy per row into the rows below. It is the solver's one kernel: every
// solve — single, batched, steady, transient, influence column —
// goes through it, and per vector its operations and their order depend
// only on the factor, never on len(ys). That order IS the floating-point
// contract, which is what keeps a batched solve bit-for-bit equal to
// solving its vectors one by one. Each factor row is reused across the
// vectors while it is cache-hot.
//
// The forward sweep starts at the first row where any vector of the
// batch is nonzero, and skipping the rows above it cannot move a bit.
// Every stored factor entry enters its row's pivot as a square, so a
// factor NewEnvelopeCholesky accepted is finite throughout, with finite
// positive rdiag. On a row whose inputs y[lo..i] are all ±0 the dot's
// products are ±0, its accumulators start at +0 and +0 + ±0 = +0, so the
// dot is +0; y[i] − (+0) = y[i] and y[i]·rdiag keeps the sign of zero.
// The skipped rows would therefore have rewritten the ±0 they already
// hold, whether the vector sits in this batch or is solved alone. A
// dense right-hand side (a transient step) stops the scan at row 0.
func (e *EnvelopeCholesky) sweep(ys []Vector) {
	n, lo, ptr, low, rdiag := e.n, e.lo, e.ptr, e.low, e.rdiag
	for i := e.firstNonzeroRow(ys); i < n; i++ {
		row, l, r := low[ptr[i]:ptr[i+1]], lo[i], rdiag[i]
		for _, y := range ys {
			y[i] = (y[i] - envDot(row, y[l:])) * r
		}
	}
	for i := n - 1; i >= 0; i-- {
		row, l, r := low[ptr[i]:ptr[i+1]], lo[i], rdiag[i]
		for _, y := range ys {
			v := y[i] * r
			y[i] = v
			envAxpy(y[l:], row, v)
		}
	}
}

// firstNonzeroRow returns the first band row at which any vector of ys
// is nonzero (NaN counts as nonzero), or n if every vector is zero.
func (e *EnvelopeCholesky) firstNonzeroRow(ys []Vector) int {
	for i := 0; i < e.n; i++ {
		for _, y := range ys {
			if y[i] != 0 {
				return i
			}
		}
	}
	return e.n
}

// work returns pooled band-space scratch for k vectors.
func (e *EnvelopeCholesky) work(k int) *envWork {
	w, _ := e.pool.Get().(*envWork)
	if w == nil {
		w = &envWork{}
	}
	for len(w.ys) < k {
		w.ys = append(w.ys, NewVector(e.n))
	}
	return w
}

// SolveInPlace overwrites b with A⁻¹·b. len(b) must be the matrix
// dimension.
func (e *EnvelopeCholesky) SolveInPlace(b Vector) {
	// A one-column batch cannot fail its length check past this point.
	_ = e.SolveBatchInPlace([]Vector{b[:e.n]})
}

// SolveBatchInPlace overwrites each column with A⁻¹·col through one
// shared sweep of the factor. Per column the result is bit-for-bit equal
// to SolveInPlace.
func (e *EnvelopeCholesky) SolveBatchInPlace(cols []Vector) error {
	if err := e.checkLens(cols); err != nil {
		return err
	}
	w := e.work(len(cols))
	ys := w.ys[:len(cols)]
	for c, col := range cols {
		y := ys[c]
		for k, oi := range e.perm {
			y[k] = col[oi]
		}
	}
	e.sweep(ys)
	for c, col := range cols {
		y := ys[c]
		for k, oi := range e.perm {
			col[oi] = y[k]
		}
	}
	e.pool.Put(w)
	return nil
}

// SolveBandInPlace is SolveBatchInPlace for columns already in band
// order: entry k of each column belongs to original index i with
// BandRow(i) = k, in and out. It needs neither the permutation copies
// nor pooled scratch, so a caller that builds many right-hand sides at
// once (the thermal influence panels) leaves no panel-sized scratch
// behind on the factor. Per column the result is SolveInPlace's,
// permuted, bit for bit.
func (e *EnvelopeCholesky) SolveBandInPlace(cols []Vector) error {
	if err := e.checkLens(cols); err != nil {
		return err
	}
	e.sweep(cols)
	return nil
}

// checkLens rejects a column whose length is not the matrix dimension.
func (e *EnvelopeCholesky) checkLens(cols []Vector) error {
	for c, col := range cols {
		if len(col) != e.n {
			return fmt.Errorf("%w: envelope solve n=%d col %d len=%d", ErrDimension, e.n, c, len(col))
		}
	}
	return nil
}

// PanelWidth is how many right-hand sides a multi-column solve (the
// thermal influence matrix) sends through one batched sweep.
const PanelWidth = 16
