// Package tsp implements Thermal Safe Power (Pagani et al.,
// CODES+ISSS 2014), the power-budget abstraction §5 of the paper builds
// on: for a given number of active cores, TSP is the maximum per-core
// power such that the steady-state temperature of every core stays below
// the critical threshold, no matter (worst case) or given (mapping-aware)
// where the active cores sit.
//
// The computation exploits the linearity of the RC thermal model. With
// influence matrix B (B[i][j] = °C rise at core i per watt in core j) and
// ambient field T0, a uniform per-core power p over an active set S yields
//
//	T_i = T0_i + p · Σ_{j∈S} B[i][j]
//
// so the largest safe p is
//
//	TSP(S) = min_i (Tcrit − T0_i) / Σ_{j∈S} B[i][j]
//
// minimized over all cores i (inactive cores cannot exceed the threshold
// if active ones do not, but the formula covers them anyway). The
// worst-case TSP for n cores minimizes TSP(S) over all |S| = n, which is
// attained by the most thermally clustered mapping; this package uses a
// greedy densest-cluster heuristic, which is exact on homogeneous grids
// for practical purposes.
package tsp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"darksim/internal/thermal"
)

// ErrInfeasible is returned when no positive power budget exists (the
// ambient field already violates the threshold).
var ErrInfeasible = errors.New("tsp: thermal threshold infeasible")

// Calculator computes TSP values against one thermal model and critical
// temperature.
type Calculator struct {
	model *thermal.Model
	tcrit float64
	base  []float64 // ambient field per block
}

// New creates a Calculator for the model and critical temperature (°C).
func New(model *thermal.Model, tcritC float64) (*Calculator, error) {
	if model == nil {
		return nil, errors.New("tsp: nil thermal model")
	}
	base := model.AmbientField()
	for i, b := range base {
		if b >= tcritC {
			return nil, fmt.Errorf("%w: core %d idles at %.2f °C ≥ %.2f °C", ErrInfeasible, i, b, tcritC)
		}
	}
	return &Calculator{model: model, tcrit: tcritC, base: base}, nil
}

// Given returns TSP for a specific active-core set: the maximum uniform
// per-core power (W) keeping every core below Tcrit. The context bounds
// the (cached, usually already computed) influence-matrix build.
func (c *Calculator) Given(ctx context.Context, active []int) (float64, error) {
	if len(active) == 0 {
		return 0, errors.New("tsp: empty active set")
	}
	n := c.model.NumBlocks()
	seen := make(map[int]bool, len(active))
	for _, a := range active {
		if a < 0 || a >= n {
			return 0, fmt.Errorf("tsp: core index %d out of range [0,%d)", a, n)
		}
		if seen[a] {
			return 0, fmt.Errorf("tsp: duplicate core index %d", a)
		}
		seen[a] = true
	}
	inf, err := c.model.InfluenceMatrix(ctx)
	if err != nil {
		return 0, err
	}
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, j := range active {
			rowSum[i] += inf.At(i, j)
		}
	}
	return c.evalTSP(rowSum, len(active))
}

// evalTSP turns accumulated influence row sums Σ_{j∈S} B[i][j] into the
// TSP value min_i (Tcrit − T0_i) / rowSum[i]. It is shared between Given
// (which builds the sums for an arbitrary set) and the greedy worst-case
// walk (which maintains them incrementally); both accumulate each row in
// active-set order, so the two call sites produce bit-identical values
// for the same set.
func (c *Calculator) evalTSP(rowSum []float64, nActive int) (float64, error) {
	best := math.Inf(1)
	for i, rs := range rowSum {
		if rs <= 0 {
			continue
		}
		if p := (c.tcrit - c.base[i]) / rs; p < best {
			best = p
		}
	}
	if math.IsInf(best, 1) || best <= 0 {
		return 0, fmt.Errorf("%w: active set of %d cores", ErrInfeasible, nActive)
	}
	return best, nil
}

// worstWalk runs the greedy adversarial-placement walk up to n cores:
// start from the single core with the highest self-influence (the thermal
// centre) and repeatedly add the core that maximizes the accumulated
// influence at the current hottest spot. After every pick it invokes
// visit with the prefix length and the live rowSum slice (read-only, do
// not retain), which lets Table evaluate all prefixes from one walk. The
// greedy choice at step k only depends on the first k picks, so the
// n-core placement is a prefix of the (n+1)-core one — the property the
// single shared walk exploits. Returns the full placement sequence.
func (c *Calculator) worstWalk(ctx context.Context, n int, visit func(k int, rowSum []float64) error) ([]int, error) {
	nb := c.model.NumBlocks()
	if n <= 0 || n > nb {
		return nil, fmt.Errorf("tsp: core count %d out of range [1,%d]", n, nb)
	}
	inf, err := c.model.InfluenceMatrix(ctx)
	if err != nil {
		return nil, err
	}

	// Seed: the core with maximum self-influence.
	seed, best := 0, math.Inf(-1)
	for i := 0; i < nb; i++ {
		if v := inf.At(i, i); v > best {
			seed, best = i, v
		}
	}
	active := []int{seed}
	inSet := make([]bool, nb)
	inSet[seed] = true
	// rowSum[i] accumulates Σ_{j∈S} B[i][j] in pick order, matching the
	// accumulation order of Given for the same set.
	rowSum := make([]float64, nb)
	for i := 0; i < nb; i++ {
		rowSum[i] = inf.At(i, seed)
	}
	if err := visit(1, rowSum); err != nil {
		return nil, err
	}
	for len(active) < n {
		// Current hottest candidate row (weighted by headroom).
		hot, worst := -1, math.Inf(-1)
		for i := 0; i < nb; i++ {
			if v := rowSum[i] / (c.tcrit - c.base[i]); v > worst {
				hot, worst = i, v
			}
		}
		// Add the core contributing most to the hottest row.
		pick, bestContrib := -1, math.Inf(-1)
		for j := 0; j < nb; j++ {
			if inSet[j] {
				continue
			}
			if v := inf.At(hot, j); v > bestContrib {
				pick, bestContrib = j, v
			}
		}
		if pick < 0 {
			break
		}
		inSet[pick] = true
		active = append(active, pick)
		for i := 0; i < nb; i++ {
			rowSum[i] += inf.At(i, pick)
		}
		if err := visit(len(active), rowSum); err != nil {
			return nil, err
		}
	}
	return active, nil
}

// WorstCase returns the worst-case TSP for n active cores — the TSP of
// the most thermally adverse placement, found by the greedy worstWalk —
// together with the adversarial placement itself.
func (c *Calculator) WorstCase(ctx context.Context, n int) (float64, []int, error) {
	var p float64
	active, err := c.worstWalk(ctx, n, func(k int, rowSum []float64) error {
		if k < n {
			return nil
		}
		v, err := c.evalTSP(rowSum, k)
		if err != nil {
			return err
		}
		p = v
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return p, active, nil
}

// BestCase returns the TSP of a thermally favourable placement for n
// cores, found greedily by always adding the core that keeps the maximum
// influence row sum lowest. This is the "dark silicon patterning" dual of
// WorstCase and upper-bounds the achievable uniform budget.
func (c *Calculator) BestCase(ctx context.Context, n int) (float64, []int, error) {
	nb := c.model.NumBlocks()
	if n <= 0 || n > nb {
		return 0, nil, fmt.Errorf("tsp: core count %d out of range [1,%d]", n, nb)
	}
	inf, err := c.model.InfluenceMatrix(ctx)
	if err != nil {
		return 0, nil, err
	}
	inSet := make([]bool, nb)
	rowSum := make([]float64, nb)
	var active []int
	for len(active) < n {
		pick, bestPeak := -1, math.Inf(1)
		for j := 0; j < nb; j++ {
			if inSet[j] {
				continue
			}
			// Peak normalized row sum if j were added.
			peak := math.Inf(-1)
			for i := 0; i < nb; i++ {
				if v := (rowSum[i] + inf.At(i, j)) / (c.tcrit - c.base[i]); v > peak {
					peak = v
				}
			}
			if peak < bestPeak {
				pick, bestPeak = j, peak
			}
		}
		inSet[pick] = true
		active = append(active, pick)
		for i := 0; i < nb; i++ {
			rowSum[i] += inf.At(i, pick)
		}
	}
	p, err := c.Given(ctx, active)
	if err != nil {
		return 0, nil, err
	}
	return p, active, nil
}

// TableEntry is one row of a TSP-versus-active-cores table.
type TableEntry struct {
	ActiveCores int
	PerCoreW    float64 // worst-case TSP per core
	TotalW      float64 // ActiveCores · PerCoreW
}

// Table computes the worst-case TSP for the core counts step, 2·step, …
// up to max, the curve §5 describes ("as the number of active cores
// grows, the TSP values decrease"). Because the greedy placement for n
// cores is a prefix of the one for n+1, the whole table falls out of a
// single worstWalk that stops at the last tabulated count and evaluates
// only the tabulated prefixes from the incrementally maintained row sums.
// The values are bit-identical to calling WorstCase per entry, and
// Table(ctx, n, n) costs exactly one WorstCase(n). A step above max
// yields an empty table.
func (c *Calculator) Table(ctx context.Context, max, step int) ([]TableEntry, error) {
	if max <= 0 || max > c.model.NumBlocks() {
		return nil, fmt.Errorf("tsp: table size %d out of range", max)
	}
	if step <= 0 {
		return nil, fmt.Errorf("tsp: table step %d not positive", step)
	}
	last := max - max%step
	if last == 0 {
		return nil, nil
	}
	out := make([]TableEntry, 0, last/step)
	_, err := c.worstWalk(ctx, last, func(k int, rowSum []float64) error {
		if k%step != 0 {
			return nil
		}
		p, err := c.evalTSP(rowSum, k)
		if err != nil {
			return err
		}
		out = append(out, TableEntry{ActiveCores: k, PerCoreW: p, TotalW: p * float64(k)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
