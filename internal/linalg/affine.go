package linalg

import (
	"fmt"
	"sync"
)

// AffinePowers collapses k applications of the affine map
//
//	x ← M·x + b
//
// into one two-matrix apply. With S₁ = I, k steps compose to
//
//	x ← Mᵏ·x + S_k·b,  S_{a+b} = M_b·S_a + S_b,
//
// so the pair (Mᵏ, S_k) for any k is assembled in O(log k) matrix
// products from a repeated-squaring ladder (M^(2ʲ), S_(2ʲ)). The thermal
// macro-stepper uses this with M = (C/dt+G)⁻¹·(C/dt) to advance whole
// controller periods of constant power at the cost of two fused
// mat-vecs.
//
// Ladder rungs and composed pairs are built lazily under a mutex and
// are immutable once published, so Advance is safe for concurrent use.
type AffinePowers struct {
	n      int
	maxJ   int // ladder depth cap: hops of at most 2^maxJ steps
	mu     sync.Mutex
	ladder []affinePair        // ladder[j] covers 2^j steps; ladder[0] = (M, I)
	comp   map[int]*affinePair // composed pairs, keyed by step count
}

// affinePair advances a fixed number of steps: x ← m·x + s·b.
type affinePair struct {
	m, s *Matrix
}

// maxComposites bounds the memo of composed pairs; past it, odd step
// counts are composed on the fly without being retained. Real runs see
// only a handful of distinct hop lengths (the record stride and its
// remainders), far below the bound.
const maxComposites = 16

// NewAffinePowers prepares the ladder for the n×n map matrix m. maxJ
// caps the ladder depth: a single Advance hop covers at most 2^maxJ
// steps, and longer advances loop over hops. Each rung and each
// distinct composed hop costs two n×n matrices, so maxJ also bounds
// memory at roughly 2·(maxJ+maxComposites)·n² floats.
func NewAffinePowers(m *Matrix, maxJ int) (*AffinePowers, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: AffinePowers of %dx%d", ErrDimension, m.Rows, m.Cols)
	}
	if maxJ < 0 {
		maxJ = 0
	}
	return &AffinePowers{
		n:      m.Rows,
		maxJ:   maxJ,
		ladder: []affinePair{{m: m.Clone(), s: Identity(m.Rows)}},
		comp:   make(map[int]*affinePair),
	}, nil
}

// MaxHop returns the largest step count a single composed pair covers.
func (a *AffinePowers) MaxHop() int { return 1 << a.maxJ }

// Advance applies k steps of the map to t in place: t ← Mᵏ·t + S_k·b.
// scratch must have the map's dimension and must not alias t or b.
func (a *AffinePowers) Advance(k int, t, b, scratch Vector) error {
	if len(t) != a.n || len(b) != a.n || len(scratch) != a.n {
		return fmt.Errorf("%w: AffinePowers advance n=%d t=%d b=%d scratch=%d",
			ErrDimension, a.n, len(t), len(b), len(scratch))
	}
	if k < 0 {
		return fmt.Errorf("linalg: AffinePowers advance k=%d < 0", k)
	}
	for k > 0 {
		hop := k
		if max := a.MaxHop(); hop > max {
			hop = max
		}
		p, err := a.pairFor(hop)
		if err != nil {
			return err
		}
		p.apply(t, b, scratch)
		copy(t, scratch)
		k -= hop
	}
	return nil
}

// apply computes out = m·t + s·b with one fused pass over both rows, so
// each cache line of the pair is touched exactly once.
func (p *affinePair) apply(t, b, out Vector) {
	n := len(out)
	for i := 0; i < n; i++ {
		mrow := p.m.Data[i*n : (i+1)*n]
		srow := p.s.Data[i*n : (i+1)*n]
		sm, sb := 0.0, 0.0
		for j, mv := range mrow {
			sm += mv * t[j]
			sb += srow[j] * b[j]
		}
		out[i] = sm + sb
	}
}

// pairFor returns the (Mᵏ, S_k) pair for 1 <= k <= MaxHop, building
// ladder rungs and the composed pair on first use.
func (a *AffinePowers) pairFor(k int) (*affinePair, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if k == 1 {
		return &a.ladder[0], nil
	}
	if p, ok := a.comp[k]; ok {
		return p, nil
	}
	// Extend the ladder through the highest set bit of k.
	top := 0
	for 1<<(top+1) <= k {
		top++
	}
	for len(a.ladder) <= top {
		last := a.ladder[len(a.ladder)-1]
		m2, err := last.m.Mul(last.m)
		if err != nil {
			return nil, err
		}
		s2, err := last.m.Mul(last.s)
		if err != nil {
			return nil, err
		}
		addInto(s2, last.s)
		a.ladder = append(a.ladder, affinePair{m: m2, s: s2})
	}
	if k == 1<<top {
		return &a.ladder[top], nil
	}
	// Compose the set bits low to high: appending rung j after a pair
	// covering c steps gives (M_j·M_c, M_j·S_c + S_j).
	var acc *affinePair
	for j := 0; j <= top; j++ {
		if k&(1<<j) == 0 {
			continue
		}
		rung := &a.ladder[j]
		if acc == nil {
			acc = rung
			continue
		}
		m, err := rung.m.Mul(acc.m)
		if err != nil {
			return nil, err
		}
		s, err := rung.m.Mul(acc.s)
		if err != nil {
			return nil, err
		}
		addInto(s, rung.s)
		acc = &affinePair{m: m, s: s}
	}
	if len(a.comp) < maxComposites {
		a.comp[k] = acc
	}
	return acc, nil
}

// addInto accumulates dst += src elementwise.
func addInto(dst, src *Matrix) {
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}
