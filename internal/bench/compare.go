package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Headline names the benchmarks the CI regression gate gates on: the
// cold 1024-core thermal solve, the influence-matrix build and the warm
// (influence-cached) worst-case TSP, the three transient figures and the
// exact transient step kernel behind them, and the parallel-figures wall
// clock. The names predate the
// single envelope solver — "Sparse", "Dense" and "Block" label the
// operation the entry has always timed, not a solve path — and are kept
// so reports stay comparable across the trajectory.
var Headline = []string{
	"ThermalSolveSparse/cores=1024",
	"InfluenceBlock/cores=1024",
	"TSPWorstCaseWarm/cores=1024",
	"figure/fig11",
	"figure/fig12",
	"figure/fig13",
	"TransientStepDense/cores=100",
	"TransientStepSparse/cores=1024",
	"FiguresParallel/figs=3",
}

// DefaultRegressionThreshold fails the comparison when a headline
// benchmark slows down by more than 25% against the committed baseline.
// Generous enough for shared-runner noise, tight enough to catch a real
// complexity regression (the optimizations being guarded are 5–60x).
const DefaultRegressionThreshold = 1.25

// ErrRegression is wrapped by Compare failures so callers can
// distinguish "slower than baseline" from I/O or shape errors.
var ErrRegression = errors.New("bench: performance regression")

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name     string  `json:"name"`
	OldNsOp  float64 `json:"old_ns_per_op"`
	NewNsOp  float64 `json:"new_ns_per_op"`
	Ratio    float64 `json:"ratio"` // new/old; > 1 is slower
	Headline bool    `json:"headline"`
}

// ReadReport loads a JSON report written by Report.WriteJSON.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing report %s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("bench: report %s has no results", path)
	}
	return &rep, nil
}

// Compare diffs the new report against a baseline. Every benchmark
// present in both reports yields a Delta (sorted by name, headline
// entries first). The returned error wraps ErrRegression when any
// headline benchmark's new/old ratio exceeds threshold (<= 0 selects
// DefaultRegressionThreshold). A headline benchmark missing from the
// NEW report is an error, so a renamed or silently-dropped benchmark
// cannot sneak past the gate; one missing from the BASELINE is not
// gated — newly promoted headlines would otherwise make every older
// baseline unusable — but still appears in the delta listing with a
// zero baseline so the gap is visible.
func Compare(old, cur *Report, threshold float64) ([]Delta, error) {
	if threshold <= 0 {
		threshold = DefaultRegressionThreshold
	}
	oldNs := make(map[string]float64, len(old.Results))
	for _, r := range old.Results {
		oldNs[r.Name] = r.NsPerOp
	}
	newNs := make(map[string]float64, len(cur.Results))
	for _, r := range cur.Results {
		newNs[r.Name] = r.NsPerOp
	}

	headline := make(map[string]bool, len(Headline))
	for _, name := range Headline {
		if _, ok := newNs[name]; !ok {
			return nil, fmt.Errorf("bench: new report is missing headline benchmark %q", name)
		}
		if _, ok := oldNs[name]; !ok {
			// Promoted after the baseline was taken: nothing to gate
			// against yet. Listed with a zero baseline, not gated.
			continue
		}
		headline[name] = true
	}

	var deltas []Delta
	for _, name := range Headline {
		if _, inOld := oldNs[name]; !inOld {
			deltas = append(deltas, Delta{Name: name, NewNsOp: newNs[name], Headline: true})
		}
	}
	for name, o := range oldNs {
		n, ok := newNs[name]
		if !ok || o <= 0 {
			continue
		}
		deltas = append(deltas, Delta{
			Name:     name,
			OldNsOp:  o,
			NewNsOp:  n,
			Ratio:    n / o,
			Headline: headline[name],
		})
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].Headline != deltas[j].Headline {
			return deltas[i].Headline
		}
		return deltas[i].Name < deltas[j].Name
	})

	var regressed []string
	for _, d := range deltas {
		if d.Headline && d.Ratio > threshold {
			regressed = append(regressed, fmt.Sprintf("%s %.2fx (%.0f -> %.0f ns/op)", d.Name, d.Ratio, d.OldNsOp, d.NewNsOp))
		}
	}
	if len(regressed) > 0 {
		return deltas, fmt.Errorf("%w: %d headline benchmark(s) over the %.0f%% threshold: %v",
			ErrRegression, len(regressed), 100*(threshold-1), regressed)
	}
	return deltas, nil
}

// WriteDeltas renders a comparison as an aligned text listing.
func WriteDeltas(w io.Writer, deltas []Delta, threshold float64) {
	if threshold <= 0 {
		threshold = DefaultRegressionThreshold
	}
	for _, d := range deltas {
		mark := " "
		switch {
		case d.Headline && d.OldNsOp == 0:
			mark = "+"
		case d.Headline && d.Ratio > threshold:
			mark = "!"
		case d.Headline:
			mark = "*"
		}
		if d.OldNsOp == 0 {
			fmt.Fprintf(w, "%s %-42s %12s -> %12.0f ns/op  (new headline, no baseline entry)\n", mark, d.Name, "-", d.NewNsOp)
			continue
		}
		fmt.Fprintf(w, "%s %-42s %12.0f -> %12.0f ns/op  %.2fx\n", mark, d.Name, d.OldNsOp, d.NewNsOp, d.Ratio)
	}
}
