package thermal

import (
	"fmt"
	"sync/atomic"

	"darksim/internal/linalg"
)

// SolverKind is a compatibility field: every model solves through one
// exact envelope Cholesky, so the kind is validated and otherwise
// ignored.
type SolverKind int

const (
	// SolverAuto is the zero value.
	SolverAuto SolverKind = iota
	// SolverDense is accepted and ignored.
	SolverDense
	// SolverSparse is accepted and ignored.
	SolverSparse
)

// String implements fmt.Stringer.
func (k SolverKind) String() string {
	switch k {
	case SolverAuto:
		return "auto"
	case SolverDense:
		return "dense"
	case SolverSparse:
		return "sparse"
	}
	return fmt.Sprintf("SolverKind(%d)", int(k))
}

// solverPath names the one solve path in SolverStats.
const solverPath = "envelope"

// solveCounters aggregates solver work across a model's lifetime. The
// counter is atomic because steady-state solves fan out on the runner
// pool (influence columns) and transients may step concurrently.
type solveCounters struct {
	solves atomic.Uint64
}

// SolverStats is a snapshot of the linear-solver work a model (and its
// transients) performed.
type SolverStats struct {
	// Path is always "envelope".
	Path string `json:"path"`
	// Solves counts linear solves (steady-state, influence columns and
	// transient steps combined).
	Solves uint64 `json:"solves"`
	// CGIterations is a compatibility field and always zero: no solve
	// iterates.
	CGIterations uint64 `json:"cg_iterations"`
}

// factor is one factored linear system behind the solver seam: an exact
// envelope Cholesky under the model's profile ordering. Factors are
// immutable after construction and safe for concurrent solves.
type factor struct {
	env   *linalg.EnvelopeCholesky
	stats *solveCounters
}

// newFactor factors the SPD matrix a under the model's ordering.
func newFactor(a *linalg.CSR, order []int, stats *solveCounters) (*factor, error) {
	env, err := linalg.NewEnvelopeCholesky(a, order)
	if err != nil {
		return nil, err
	}
	return &factor{env: env, stats: stats}, nil
}

// solveInPlace overwrites b (NumNodes long) with A⁻¹·b.
func (f *factor) solveInPlace(b linalg.Vector) {
	f.env.SolveInPlace(b)
	f.stats.solves.Add(1)
}

// solveBand is solveBatch for columns in the factor's band order (see
// linalg.EnvelopeCholesky.BandRow).
func (f *factor) solveBand(cols []linalg.Vector) error {
	if err := f.env.SolveBandInPlace(cols); err != nil {
		return err
	}
	f.stats.solves.Add(uint64(len(cols)))
	return nil
}

// solveBatch overwrites each column with A⁻¹·col in one shared sweep,
// bit-for-bit equal to solving the columns one by one.
func (f *factor) solveBatch(cols []linalg.Vector) error {
	if err := f.env.SolveBatchInPlace(cols); err != nil {
		return err
	}
	f.stats.solves.Add(uint64(len(cols)))
	return nil
}
