// Package variability models within-die process variation, the dimension
// that makes DaSim (§4 of the paper: "Variability-aware dark silicon
// management in on-chip many-core systems") variability-*aware*: cores on
// the same die differ in leakage current (lognormally, dominated by
// threshold-voltage variation) and in maximum stable frequency. A
// dark-silicon manager that knows the map can prefer low-leakage cores
// when choosing which cores to light, saving power and peak temperature
// at identical performance.
//
// Maps are deterministic in the seed: a smooth systematic component (a
// tilted cosine wave across the die, the classic wafer-level signature)
// plus an uncorrelated random component.
package variability

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"darksim/internal/floorplan"
	"darksim/internal/mapping"
)

// Map holds per-core variation multipliers.
type Map struct {
	// LeakMult scales each core's leakage power (lognormal, mean ≈ 1).
	LeakMult []float64
	// FmaxDeltaGHz shifts each core's maximum stable frequency.
	FmaxDeltaGHz []float64
}

const (
	// leakSigma is the lognormal sigma of leakage variation; silicon
	// measurements at these nodes commonly show 20–30 %.
	leakSigma = 0.25
	// systematicFrac is the share of the variance carried by the smooth
	// wafer-level component.
	systematicFrac = 0.5
	// fmaxSigmaGHz is the per-core fmax standard deviation.
	fmaxSigmaGHz = 0.1
)

// ErrVariability is returned for invalid generation parameters.
var ErrVariability = errors.New("variability: invalid")

// Generate builds the variation map for a floorplan; the seed selects
// the deterministic variation pattern.
func Generate(fp *floorplan.Floorplan, seed int64) (*Map, error) {
	n := fp.NumBlocks()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty floorplan", ErrVariability)
	}
	rng := rand.New(rand.NewSource(seed))
	// Systematic component: one spatial cosine across the die with a
	// random orientation and phase; wavelength of roughly the die size.
	theta := 2 * math.Pi * rng.Float64()
	phase := 2 * math.Pi * rng.Float64()
	dirX, dirY := math.Cos(theta), math.Sin(theta)
	diag := math.Hypot(fp.DieW, fp.DieH)
	sysAmp := math.Sqrt(systematicFrac) * math.Sqrt2 // unit-variance cosine needs √2 amplitude
	rndAmp := math.Sqrt(1 - systematicFrac)

	m := &Map{
		LeakMult:     make([]float64, n),
		FmaxDeltaGHz: make([]float64, n),
	}
	for i, b := range fp.Blocks {
		u := (b.CenterX()*dirX + b.CenterY()*dirY) / diag
		sys := sysAmp * math.Cos(2*math.Pi*u+phase)
		g := sys + rndAmp*rng.NormFloat64()
		m.LeakMult[i] = math.Exp(leakSigma * g)
		// Fast cores leak more: fmax correlates positively with the
		// same underlying Vth variation.
		m.FmaxDeltaGHz[i] = fmaxSigmaGHz * g
	}
	return m, nil
}

// ApplyLeak scales the leakage share of a per-core power map in place:
// power[i] = power[i] + (LeakMult[i]−1)·leakW for active cores (power>0).
func (m *Map) ApplyLeak(power []float64, leakW float64) error {
	if len(power) != len(m.LeakMult) {
		return fmt.Errorf("%w: %d cores in power map, %d in variation map",
			ErrVariability, len(power), len(m.LeakMult))
	}
	for i := range power {
		if power[i] > 0 {
			power[i] += (m.LeakMult[i] - 1) * leakW
			if power[i] < 0 {
				power[i] = 0
			}
		}
	}
	return nil
}

// AwareStrategy returns a placement strategy that prefers low-leakage
// cores: candidates are ranked by a blend of their leakage multiplier and
// their position in the base strategy's thermal ordering, so the
// selection stays spread while favouring cool (low-leak) silicon. This is
// the DaSim-style variability-aware core selection.
func (m *Map) AwareStrategy(base mapping.Strategy) mapping.Strategy {
	return func(fp *floorplan.Floorplan, n int) ([]int, error) {
		order, err := base(fp, fp.NumBlocks())
		if err != nil {
			return nil, err
		}
		if n < 0 || n > len(order) {
			return nil, fmt.Errorf("%w: request for %d of %d cores", ErrVariability, n, len(order))
		}
		if len(order) != len(m.LeakMult) {
			return nil, fmt.Errorf("%w: map for %d cores, floorplan has %d",
				ErrVariability, len(m.LeakMult), len(order))
		}
		// Rank of each core in the base (thermal) ordering, normalized.
		rank := make([]float64, len(order))
		for pos, c := range order {
			rank[c] = float64(pos) / float64(len(order)-1)
		}
		type scored struct {
			core  int
			score float64
		}
		all := make([]scored, len(order))
		for i := range order {
			c := order[i]
			// Equal weight to thermal position and leakage multiplier;
			// both normalized to comparable ranges.
			all[i] = scored{core: c, score: rank[c] + m.LeakMult[c]}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].score != all[b].score {
				return all[a].score < all[b].score
			}
			return all[a].core < all[b].core
		})
		out := make([]int, n)
		for i := range out {
			out[i] = all[i].core
		}
		return out, nil
	}
}
