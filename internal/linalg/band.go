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
// thermal RC matrices are layered grid graphs: under a Sloan or reverse
// Cuthill–McKee ordering their envelope is narrow for grid rows and only
// widens locally where coarse layers overlap many fine cells. Cholesky
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

// sloanWeights are the (distance, degree) weight pairs ProfileOrder
// tries: Sloan's classic (2, 1), and (1, 2), which favours absorbing
// cheap nodes and stores about a fifth less on the layered thermal grids.
var sloanWeights = [...][2]int{{2, 1}, {1, 2}}

// ProfileOrder returns an envelope-reducing ordering of the symmetric
// sparsity graph of a: order[k] is the original index of the node placed
// at position k. Per connected component it generates reverse
// Cuthill–McKee orderings from several pseudo-peripheral roots plus
// Sloan orderings, scores each candidate by the envelope it would store,
// and keeps the smallest — so a weak heuristic on an awkward graph can
// never drag the result below the best candidate.
func ProfileOrder(a *CSR) []int {
	n := a.N
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	order := make([]int, 0, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	scratch := make([]bool, n)
	scratch2 := make([]bool, n)

	// bfs appends the component of root to queue in Cuthill–McKee order
	// (neighbours by increasing degree) and returns the last level and
	// the BFS depth.
	bfs := func(root int, mark []bool) ([]int, int) {
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

	// componentOrder runs Cuthill–McKee from root over the unvisited
	// component without committing the visit marks, and reverses the
	// result: reversing turns the lower profile into an upper one and
	// empirically tightens the envelope (the "R" in RCM).
	componentOrder := func(root int) []int {
		copy(scratch2, visited)
		bfs(root, scratch2)
		ord := append([]int(nil), queue...)
		for l, r := 0, len(ord)-1; l < r; l, r = l+1, r-1 {
			ord[l], ord[r] = ord[r], ord[l]
		}
		return ord
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
	sloanOrder := func(s, e, w1, w2 int) []int {
		// Distance from e over the component, BFS.
		copy(scratch2, visited)
		dist := make(map[int]int)
		frontier := append(queue[:0], e)
		scratch2[e] = true
		dist[e] = 0
		for len(frontier) > 0 {
			next := frontier[:0:0]
			for _, i := range frontier {
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					j := a.Col[k]
					if j != i && !scratch2[j] {
						scratch2[j] = true
						dist[j] = dist[i] + 1
						next = append(next, j)
					}
				}
			}
			frontier = next
		}
		for v, d := range dist {
			prio[v] = w1*d - w2*(deg[v]+1)
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
					prio[w] += w2
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
				prio[w] += w2
				for k2 := a.RowPtr[w]; k2 < a.RowPtr[w+1]; k2++ {
					u := a.Col[k2]
					if u == w || status[u] == sloanPostactive {
						continue
					}
					prio[u] += w2
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
		// Candidate roots: the seed itself and the pseudo-peripheral
		// vertices found by hopping to the minimum-degree vertex of the
		// deepest BFS level (George–Liu). Deeper level structures usually
		// mean thinner levels, but not always — so every candidate's
		// component ordering is scored by its actual envelope size and
		// the smallest wins.
		roots := []int{seed}
		root := seed
		copy(scratch, visited)
		_, depth := bfs(root, scratch)
		for {
			copy(scratch, visited)
			last, _ := bfs(root, scratch)
			next := last[0]
			for _, v := range last {
				if deg[v] < deg[next] {
					next = v
				}
			}
			if next == root {
				break
			}
			roots = append(roots, next)
			copy(scratch, visited)
			_, d := bfs(next, scratch)
			if d <= depth {
				break
			}
			root, depth = next, d
		}
		best := componentOrder(roots[0])
		bestEnv := envelopeSize(best)
		for _, r := range roots[1:] {
			if cand := componentOrder(r); envelopeSize(cand) < bestEnv {
				best, bestEnv = cand, envelopeSize(cand)
			}
		}
		// Sloan candidates between the pseudo-peripheral pair, both ways,
		// under each weight pair.
		copy(scratch, visited)
		last, _ := bfs(root, scratch)
		end := last[0]
		for _, v := range last {
			if deg[v] < deg[end] {
				end = v
			}
		}
		for _, pair := range [][2]int{{root, end}, {end, root}} {
			if pair[0] == pair[1] {
				continue
			}
			for _, w := range sloanWeights {
				cand := sloanOrder(pair[0], pair[1], w[0], w[1])
				if env := envelopeSize(cand); env < bestEnv {
					best, bestEnv = cand, env
				}
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
	lo    []int     // row k of L spans columns [lo[k], k)
	ptr   []int     // strict row k of L is low[ptr[k]:ptr[k+1]]
	low   []float64 // strict lower rows, packed back to back
	rdiag []float64 // 1 / L[k][k]
	bw    int       // max half-bandwidth, max_k (k - lo[k])
	pool  sync.Pool // *envWork
}

// envWork is one solve's band-space scratch, one vector per column.
type envWork struct{ ys [][]float64 }

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
	bw := 0
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + i - lo[i]
		bw = max(bw, i-lo[i])
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
	return &EnvelopeCholesky{n: n, perm: perm, lo: lo, ptr: ptr, low: low, rdiag: rdiag, bw: bw}, nil
}

// Bandwidth returns the maximum half-bandwidth of the factor under its
// ordering.
func (e *EnvelopeCholesky) Bandwidth() int { return e.bw }

// Profile returns the number of stored factor entries, nnz(L).
func (e *EnvelopeCholesky) Profile() int { return len(e.low) + e.n }

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
// solve — single, batched, steady, transient, influence column, inverse —
// goes through it, and per vector its operations and their order depend
// only on the factor, never on len(ys). That order IS the floating-point
// contract, which is what keeps a batched solve bit-for-bit equal to
// solving its vectors one by one. Each factor row is reused across the
// vectors while it is cache-hot.
func (e *EnvelopeCholesky) sweep(ys [][]float64) {
	n, lo, ptr, low, rdiag := e.n, e.lo, e.ptr, e.low, e.rdiag
	for i := 0; i < n; i++ {
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

// work returns pooled band-space scratch for k vectors.
func (e *EnvelopeCholesky) work(k int) *envWork {
	w, _ := e.pool.Get().(*envWork)
	if w == nil {
		w = &envWork{}
	}
	for len(w.ys) < k {
		w.ys = append(w.ys, make([]float64, e.n))
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
	for c, col := range cols {
		if len(col) != e.n {
			return fmt.Errorf("%w: envelope solve n=%d col %d len=%d", ErrDimension, e.n, c, len(col))
		}
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

// inversePanel is how many unit columns Inverse solves per sweep.
const inversePanel = 16

// Inverse returns A⁻¹ as a dense matrix, solving the unit columns in
// panels through the shared sweep: O(n·nnz(L)) instead of a dense
// factorization's O(n³).
func (e *EnvelopeCholesky) Inverse() *Matrix {
	n := e.n
	inv := NewMatrix(n, n)
	cols := make([]Vector, inversePanel)
	for c := range cols {
		cols[c] = NewVector(n)
	}
	for j0 := 0; j0 < n; j0 += inversePanel {
		panel := cols[:min(inversePanel, n-j0)]
		for c, col := range panel {
			col.Fill(0)
			col[j0+c] = 1
		}
		_ = e.SolveBatchInPlace(panel) // lengths are n by construction
		for c, col := range panel {
			for i, v := range col {
				inv.Data[i*n+j0+c] = v
			}
		}
	}
	return inv
}
