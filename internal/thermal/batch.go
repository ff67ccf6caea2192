package thermal

import (
	"fmt"

	"darksim/internal/linalg"
)

// TransientBatch steps several independent temperature states of one
// (model, dt) pair in lockstep. All states share the cached
// factorization, and each step solves every live state through one
// batched envelope sweep, which streams each factor row once across all
// states instead of once per state. Per state the arithmetic is
// bit-for-bit identical to calling Transient.Step, at every model size —
// sim.RunLanes, the one stepping engine behind the figures and the policy
// sandbox, relies on that to race lanes in lockstep without perturbing
// any lane's trace.
type TransientBatch struct {
	m    *Model
	trs  []*Transient
	cols []linalg.Vector // reused batch view of the live right-hand sides
}

// NewTransientBatch creates k transient integrators sharing one cached
// factorization for step size dt.
func (m *Model) NewTransientBatch(dt float64, k int) (*TransientBatch, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: transient batch of %d states", ErrConfig, k)
	}
	b := &TransientBatch{m: m, trs: make([]*Transient, k)}
	for i := range b.trs {
		tr, err := m.NewTransient(dt)
		if err != nil {
			return nil, err
		}
		b.trs[i] = tr
	}
	return b, nil
}

// Transient returns the i-th state for per-state setup and queries
// (SetSteadyState, BlockTemps, ...).
func (b *TransientBatch) Transient(i int) *Transient { return b.trs[i] }

// StepAll advances every active state by one dt under its own power map
// and writes the resulting per-block temperatures into temps[i]. Entries
// with active[i] == false are skipped entirely (a nil active means all
// are live). powers and temps must have one entry per state; each live
// temps[i] must have NumBlocks length. A rejected power map fails the
// call before any state advances.
func (b *TransientBatch) StepAll(powers [][]float64, active []bool, temps [][]float64) error {
	if len(powers) != len(b.trs) || len(temps) != len(b.trs) {
		return fmt.Errorf("%w: batch step with %d power maps, %d temp buffers for %d states",
			ErrConfig, len(powers), len(temps), len(b.trs))
	}
	live := func(i int) bool { return active == nil || active[i] }
	b.cols = b.cols[:0]
	for i, tr := range b.trs {
		if !live(i) {
			continue
		}
		if err := b.m.nodePowerInto(tr.rhs, powers[i]); err != nil {
			return err
		}
		b.cols = append(b.cols, tr.rhs)
	}
	if len(b.cols) == 0 {
		return nil
	}
	for i, tr := range b.trs {
		if live(i) {
			tr.completeRHS()
		}
	}
	if err := b.trs[0].tf.fac.solveBatch(b.cols); err != nil {
		return err
	}
	for i, tr := range b.trs {
		if !live(i) {
			continue
		}
		tr.t, tr.rhs = tr.rhs, tr.t
		b.m.blockTempsInto(temps[i], tr.t)
	}
	return nil
}
