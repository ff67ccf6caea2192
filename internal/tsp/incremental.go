package tsp

import (
	"context"
	"fmt"
)

// Incremental maintains TSP for a mutable active-core set. The RC model
// is linear, so the per-row accumulated influence Σ_{j∈S} B[i][j] — the
// only set-dependent input of the TSP formula — changes by exactly one
// influence column when one core joins or leaves the set. Add and Remove
// therefore cost O(cores) each instead of the O(|S|·cores) rebuild
// Given performs, which is the cheap re-evaluation DarkGates-style
// schedulers need when they move one core at a time.
//
// Invariant: after any sequence of Add/Remove, TSP() equals
// Given(activeSet) up to floating-point reassociation — the row sums
// hold the same mathematical value but may have been accumulated in a
// different order (exactly equal when cores were only ever added, in
// order). Removal subtracts the column that was previously added, so
// long alternating sequences stay within a few ULPs of a fresh build.
type Incremental struct {
	c      *Calculator
	inf    influenceAt
	inSet  []bool
	active []int // insertion order
	rowSum []float64
}

// influenceAt is the read-only slice of the influence matrix the updater
// needs; it matches *linalg.Matrix.
type influenceAt interface {
	At(i, j int) float64
}

// Incremental returns an updater seeded with an empty active set. The
// context bounds the influence-matrix build (a cache hit for any model
// that already served a TSP query).
func (c *Calculator) Incremental(ctx context.Context) (*Incremental, error) {
	inf, err := c.model.InfluenceMatrix(ctx)
	if err != nil {
		return nil, err
	}
	nb := c.model.NumBlocks()
	return &Incremental{
		c:      c,
		inf:    inf,
		inSet:  make([]bool, nb),
		rowSum: make([]float64, nb),
	}, nil
}

// Add activates one core, updating every row sum by its influence
// column.
func (u *Incremental) Add(core int) error {
	if core < 0 || core >= len(u.inSet) {
		return fmt.Errorf("tsp: core index %d out of range [0,%d)", core, len(u.inSet))
	}
	if u.inSet[core] {
		return fmt.Errorf("tsp: core %d already active", core)
	}
	u.inSet[core] = true
	u.active = append(u.active, core)
	for i := range u.rowSum {
		u.rowSum[i] += u.inf.At(i, core)
	}
	return nil
}

// Remove deactivates one core, subtracting its influence column from
// every row sum.
func (u *Incremental) Remove(core int) error {
	if core < 0 || core >= len(u.inSet) {
		return fmt.Errorf("tsp: core index %d out of range [0,%d)", core, len(u.inSet))
	}
	if !u.inSet[core] {
		return fmt.Errorf("tsp: core %d not active", core)
	}
	u.inSet[core] = false
	for k, a := range u.active {
		if a == core {
			u.active = append(u.active[:k], u.active[k+1:]...)
			break
		}
	}
	for i := range u.rowSum {
		u.rowSum[i] -= u.inf.At(i, core)
	}
	return nil
}

// SetActive diffs the requested set against the current one and applies
// only the membership changes, preserving the incremental cost when two
// consecutive sets overlap heavily.
func (u *Incremental) SetActive(cores []int) error {
	want := make([]bool, len(u.inSet))
	for _, c := range cores {
		if c < 0 || c >= len(u.inSet) {
			return fmt.Errorf("tsp: core index %d out of range [0,%d)", c, len(u.inSet))
		}
		if want[c] {
			return fmt.Errorf("tsp: duplicate core index %d", c)
		}
		want[c] = true
	}
	// Removals first (over a snapshot: Remove mutates u.active).
	var drop []int
	for _, a := range u.active {
		if !want[a] {
			drop = append(drop, a)
		}
	}
	for _, a := range drop {
		if err := u.Remove(a); err != nil {
			return err
		}
	}
	for _, c := range cores {
		if !u.inSet[c] {
			if err := u.Add(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// TSP evaluates the budget for the current active set from the
// maintained row sums.
func (u *Incremental) TSP() (float64, error) {
	if len(u.active) == 0 {
		return 0, fmt.Errorf("tsp: empty active set")
	}
	return u.c.evalTSP(u.rowSum, len(u.active))
}
