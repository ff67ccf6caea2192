// Package amdahl implements Amdahl's law, the speed-up law the paper's
// application model rests on. Figure 4 of the paper shows speed-up
// factors "based on simulations conducted on gem5 and Amdahl's law"; the
// parallelism wall it illustrates — speed-ups saturating far below the
// thread count — is what motivates running multiple application instances
// instead of one wide-open application.
package amdahl

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalid is returned for a non-physical parallel fraction.
var ErrInvalid = errors.New("amdahl: invalid")

// Amdahl is the classic fixed-workload law: S(n) = 1 / ((1−p) + p/n),
// where p is the parallelizable fraction of the program.
type Amdahl struct {
	ParallelFrac float64
}

// NewAmdahl validates p ∈ [0, 1].
func NewAmdahl(p float64) (Amdahl, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return Amdahl{}, fmt.Errorf("%w: parallel fraction %g", ErrInvalid, p)
	}
	return Amdahl{ParallelFrac: p}, nil
}

// Speedup returns the speed-up for n ≥ 1 threads (1 for n ≤ 1).
func (a Amdahl) Speedup(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / ((1 - a.ParallelFrac) + a.ParallelFrac/float64(n))
}

// Limit returns the asymptotic speed-up 1/(1−p) (∞ for p == 1).
func (a Amdahl) Limit() float64 {
	if a.ParallelFrac >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - a.ParallelFrac)
}
