package thermal

import "darksim/internal/linalg"

// The macro-stepping kernel exploits that the implicit-Euler update with
// a frozen power map is an affine map of the node temperatures:
//
//	(C/dt + G)·T⁺ = (C/dt)·T + P + P_amb
//	T⁺ = M·T + b,   M = (C/dt+G)⁻¹·(C/dt),   b = (C/dt+G)⁻¹·(P + P_amb)
//
// so k quiet steps collapse to T ← Mᵏ·T + S_k·b in O(log k) matrix
// applies via the linalg.AffinePowers ladder. The kernel is cached per
// (model, dt) on the transFactor, next to the factorization it derives
// from: (C/dt+G)⁻¹ is n batched solves against that same envelope
// factor, so the macro path and the exact path share one factorization.

const (
	// macroNodeLimit gates kernel construction: above it the dense
	// inverse (O(n³) build, O(n²) per apply) stops paying for itself and
	// MacroStep falls back to repeated exact steps. All paper platforms
	// that macro-step (364- and 584-node models) sit below the gate.
	macroNodeLimit = 768

	// macroMemBudgetBytes caps the ladder's matrix memory (each rung and
	// each memoized composite hop is two n×n float64 matrices).
	macroMemBudgetBytes = 96 << 20

	// macroMinSteps is the shortest advance worth routing through the
	// ladder; below it the two fused mat-vecs of one hop cost more than
	// the triangular solves they replace.
	macroMinSteps = 4
)

// macroKernel is the per-(model, dt) fast-path state.
type macroKernel struct {
	ainv   *linalg.Matrix // (C/dt + G)⁻¹, dense
	powers *linalg.AffinePowers
}

// kernel returns the macro kernel for this factor, building it on first
// use. A nil kernel with nil error means the model is above the macro
// gate and callers must use the exact path; a build error is sticky.
func (tf *transFactor) kernel(m *Model) (*macroKernel, error) {
	tf.macroMu.Lock()
	defer tf.macroMu.Unlock()
	if tf.macroUp {
		return tf.macro, tf.macroErr
	}
	tf.macroUp = true
	n := len(m.cells)
	if n > macroNodeLimit {
		return nil, nil
	}
	tf.macro, tf.macroErr = buildMacroKernel(m, tf)
	return tf.macro, tf.macroErr
}

// buildMacroKernel materializes (C/dt+G)⁻¹ and the affine-powers ladder.
func buildMacroKernel(m *Model, tf *transFactor) (*macroKernel, error) {
	n := len(m.cells)
	ainv := tf.fac.env.Inverse()
	// M = A⁻¹·(C/dt): scale column j by capDt[j].
	step := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		arow := ainv.Data[i*n : (i+1)*n]
		srow := step.Data[i*n : (i+1)*n]
		for j, v := range arow {
			srow[j] = v * tf.capDt[j]
		}
	}
	powers, err := linalg.NewAffinePowers(step, ladderDepth(n))
	if err != nil {
		return nil, err
	}
	return &macroKernel{ainv: ainv, powers: powers}, nil
}

// ladderDepth picks the deepest repeated-squaring ladder whose rungs fit
// the memory budget, leaving half the budget for composed hops.
func ladderDepth(n int) int {
	perRung := 16 * n * n // two n×n float64 matrices
	depth := 1
	for depth < 10 && (depth+2)*perRung <= macroMemBudgetBytes/2 {
		depth++
	}
	return depth
}
