// Package mapping implements spatial mapping of application instances onto
// manycore floorplans and the mapping policies the paper discusses in §4:
//
//   - contiguous mapping (the naive baseline of Figure 8a);
//   - dark-silicon patterning (DaSim-style, Figure 8b): placements that
//     interleave dark cores with active ones to cut the peak temperature;
//   - TDPmap: fill the chip with 8-thread instances at the maximum v/f
//     level until the TDP is exhausted;
//   - DsRem: jointly choose per-application thread counts and v/f levels
//     to maximize performance under the temperature constraint.
package mapping

import (
	"errors"
	"fmt"
	"sort"

	"darksim/internal/apps"
	"darksim/internal/floorplan"
)

// ErrMapping is returned for infeasible or malformed mapping requests.
var ErrMapping = errors.New("mapping: invalid")

// Strategy selects n core indices from a floorplan.
type Strategy func(fp *floorplan.Floorplan, n int) ([]int, error)

func checkRequest(fp *floorplan.Floorplan, n int) error {
	if n < 0 || n > fp.NumBlocks() {
		return fmt.Errorf("%w: request for %d of %d cores", ErrMapping, n, fp.NumBlocks())
	}
	return nil
}

// Contiguous maps n cores in row-major order starting from the bottom-left
// corner — the naive policy of Figure 8(a) that clusters heat.
func Contiguous(fp *floorplan.Floorplan, n int) ([]int, error) {
	if err := checkRequest(fp, n); err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out, nil
}

// Checkerboard maps n cores on alternating grid parities, filling the even
// parity first; a simple static dark-silicon pattern.
func Checkerboard(fp *floorplan.Floorplan, n int) ([]int, error) {
	if err := checkRequest(fp, n); err != nil {
		return nil, err
	}
	if fp.Cols == 0 {
		return nil, fmt.Errorf("%w: checkerboard needs a grid floorplan", ErrMapping)
	}
	var out []int
	for _, parity := range []int{0, 1} {
		for r := 0; r < fp.Rows && len(out) < n; r++ {
			for c := 0; c < fp.Cols && len(out) < n; c++ {
				if (r+c)%2 == parity {
					out = append(out, fp.Index(r, c))
				}
			}
		}
	}
	return out, nil
}

// PeripheryFirst maps n cores ordered by decreasing distance from the die
// centre: the die periphery has the most lateral heat-spreading headroom,
// so this pattern reduces peak temperature (the core of DaSim-style
// patterning). Ties break on index for determinism.
func PeripheryFirst(fp *floorplan.Floorplan, n int) ([]int, error) {
	if err := checkRequest(fp, n); err != nil {
		return nil, err
	}
	cx, cy := fp.DieW/2, fp.DieH/2
	type scored struct {
		idx int
		d2  float64
	}
	all := make([]scored, fp.NumBlocks())
	for i, b := range fp.Blocks {
		dx, dy := b.CenterX()-cx, b.CenterY()-cy
		all[i] = scored{idx: i, d2: dx*dx + dy*dy}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d2 != all[b].d2 {
			return all[a].d2 > all[b].d2
		}
		return all[a].idx < all[b].idx
	})
	out := make([]int, n)
	for i := range out {
		out[i] = all[i].idx
	}
	return out, nil
}

// MaxSpread maps n cores by greedy farthest-point selection: each new core
// maximizes its minimum distance to the already-selected set (seeded at a
// corner). It spreads heat sources as evenly as possible.
func MaxSpread(fp *floorplan.Floorplan, n int) ([]int, error) {
	if err := checkRequest(fp, n); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	selected := []int{0}
	inSet := make([]bool, fp.NumBlocks())
	inSet[0] = true
	minDist := make([]float64, fp.NumBlocks())
	for i := range minDist {
		minDist[i] = fp.Distance(i, 0)
	}
	for len(selected) < n {
		pick, best := -1, -1.0
		for i := 0; i < fp.NumBlocks(); i++ {
			if inSet[i] {
				continue
			}
			if minDist[i] > best {
				pick, best = i, minDist[i]
			}
		}
		inSet[pick] = true
		selected = append(selected, pick)
		for i := 0; i < fp.NumBlocks(); i++ {
			if d := fp.Distance(i, pick); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	sort.Ints(selected)
	return selected, nil
}

// Replace re-places a plan's instances under a new strategy: the same
// placements (apps, thread counts, v/f levels) get fresh cores chosen by
// strat over the whole die, assigned in placement order. Instance
// accounting is untouched — only the dark-silicon pattern moves.
func Replace(pl *Plan, fp *floorplan.Floorplan, strat Strategy) (*Plan, error) {
	cores, err := strat(fp, pl.ActiveCores())
	if err != nil {
		return nil, err
	}
	at := 0
	out := &Plan{NumCores: pl.NumCores}
	for _, p := range pl.Placements {
		np := p
		np.Cores = cores[at : at+len(p.Cores)]
		at += len(p.Cores)
		out.Placements = append(out.Placements, np)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Strategies returns the named placement strategies for sweep experiments.
func Strategies() map[string]Strategy {
	return map[string]Strategy{
		"contiguous":   Contiguous,
		"checkerboard": Checkerboard,
		"periphery":    PeripheryFirst,
		"maxspread":    MaxSpread,
	}
}

// Placement is one application instance mapped onto specific cores at one
// v/f level.
type Placement struct {
	App     apps.App
	Cores   []int   // one core per thread
	FGHz    float64 // shared DVFS level of the instance's cores
	Threads int     // == len(Cores)
}

// GIPS returns the instance's throughput.
func (p Placement) GIPS() float64 { return p.App.InstanceGIPS(p.FGHz, p.Threads) }

// Plan is a full chip workload: a set of placements on disjoint cores.
type Plan struct {
	Placements []Placement
	NumCores   int // total cores on the chip
}

// Validate checks that placements are disjoint and within range.
func (pl *Plan) Validate() error {
	used := make(map[int]bool)
	for _, p := range pl.Placements {
		if p.Threads != len(p.Cores) {
			return fmt.Errorf("%w: placement threads %d != cores %d", ErrMapping, p.Threads, len(p.Cores))
		}
		if p.Threads < 1 || p.Threads > apps.MaxThreadsPerInstance {
			return fmt.Errorf("%w: %d threads per instance (max %d)", ErrMapping, p.Threads, apps.MaxThreadsPerInstance)
		}
		if p.FGHz <= 0 {
			return fmt.Errorf("%w: non-positive frequency", ErrMapping)
		}
		for _, c := range p.Cores {
			if c < 0 || c >= pl.NumCores {
				return fmt.Errorf("%w: core %d out of range", ErrMapping, c)
			}
			if used[c] {
				return fmt.Errorf("%w: core %d double-booked", ErrMapping, c)
			}
			used[c] = true
		}
	}
	return nil
}

// ActiveCores returns the number of powered cores.
func (pl *Plan) ActiveCores() int {
	n := 0
	for _, p := range pl.Placements {
		n += len(p.Cores)
	}
	return n
}

// TotalGIPS returns the plan's aggregate throughput.
func (pl *Plan) TotalGIPS() float64 {
	var g float64
	for _, p := range pl.Placements {
		g += p.GIPS()
	}
	return g
}

// NodePowerer abstracts "per-core power of app a at frequency f" so the
// plan types do not hard-code a technology node. internal/core provides
// the standard implementation.
type NodePowerer interface {
	CorePower(a apps.App, fGHz, tempC float64) (float64, error)
}

// AddInstances is the one instance packer: it splits the ordered core
// list into consecutive threads-sized placements of app at fGHz, the last
// one partial when len(cores) is not a multiple of threads, and appends
// them to the plan. The placements share the cores slice. A threads
// below 1 packs every core into one placement.
func (pl *Plan) AddInstances(app apps.App, cores []int, threads int, fGHz float64) {
	for len(cores) > 0 {
		n := min(threads, len(cores))
		if n < 1 {
			n = len(cores)
		}
		pl.Placements = append(pl.Placements, Placement{App: app, Cores: cores[:n], FGHz: fGHz, Threads: n})
		cores = cores[n:]
	}
}

// Pack selects n cores of fp with strat and packs them with AddInstances
// as threads-thread instances of app at fGHz into a validated plan.
func Pack(fp *floorplan.Floorplan, strat Strategy, n int, app apps.App, threads int, fGHz float64) (*Plan, error) {
	cores, err := strat(fp, n)
	if err != nil {
		return nil, err
	}
	plan := &Plan{NumCores: fp.NumBlocks()}
	plan.AddInstances(app, cores, threads, fGHz)
	return plan, plan.Validate()
}

// FillCount is TDPmap's fill arithmetic, shared with the scenario engine:
// a budget of budgetW at perCoreW per core powers int(budgetW/perCoreW)
// cores (none for a non-positive budget), at most freeCores of them. They
// make whole threads-thread instances, at most maxInstances (0 = no cap),
// and, when allowPartial is set and the cap leaves room, the leftover
// cores one partial instance of partial threads.
func FillCount(budgetW, perCoreW float64, freeCores, threads, maxInstances int, allowPartial bool) (instances, partial int) {
	budgetCores := 0
	if budgetW > 0 {
		budgetCores = int(budgetW / perCoreW)
	}
	budgetCores = min(budgetCores, freeCores)
	instances = budgetCores / threads
	if maxInstances > 0 && instances > maxInstances {
		instances = maxInstances
	}
	if allowPartial && (maxInstances == 0 || instances < maxInstances) {
		partial = max(budgetCores-instances*threads, 0)
	}
	return instances, partial
}
