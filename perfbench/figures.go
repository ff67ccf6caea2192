package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/report"
	"darksim/internal/runner"
	"darksim/internal/thermal"
)

// goldenFile mirrors one entry of the golden corpus: the options the
// tables were computed under, the comparison tolerance, and the tables.
type goldenFile struct {
	ID        string            `json:"id"`
	Options   map[string]string `json:"options"`
	Tolerance struct {
		Abs float64 `json:"abs"`
		Rel float64 `json:"rel"`
	} `json:"tolerance"`
	Tables []*report.Table `json:"tables"`
}

// figureJob is one registered figure with its corpus entry and the
// simulated duration the corpus recorded (0 for non-transient figures).
type figureJob struct {
	exp      experiments.Experiment
	golden   *goldenFile
	duration float64
}

// loadFigureJobs reads the embedded golden corpus for every registered
// figure.
func loadFigureJobs() ([]figureJob, error) {
	corpus := experiments.GoldenCorpus()
	var jobs []figureJob
	for _, e := range experiments.Registry() {
		data, err := fs.ReadFile(corpus, e.ID+".json")
		if err != nil {
			return nil, fmt.Errorf("golden corpus: %w", err)
		}
		g := &goldenFile{}
		if err := json.Unmarshal(data, g); err != nil {
			return nil, fmt.Errorf("golden corpus %s: %w", e.ID, err)
		}
		j := figureJob{exp: e, golden: g}
		if v, ok := g.Options["duration_s"]; ok {
			if j.duration, err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("golden corpus %s: duration_s %q: %w", e.ID, v, err)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// figureOut is one figure's product within a pass: the rendered text the
// CLI prints and the structured tables checked against the corpus.
type figureOut struct {
	text     []byte
	tables   []*report.Table
	ms       float64
	renderMS float64
}

// passResult is one regeneration of every figure.
type passResult struct {
	wallMS, firstOutMS float64
	outs               map[string]*figureOut
	renderMS           float64
}

// figurePass regenerates every figure from cold platform and influence
// caches the way `darksim all` does: the jobs run on the runner pool at
// GOMAXPROCS workers in the given order, each worker renders its figure
// to text, and the texts are written out in registry order once every
// figure is done. firstOutMS is when the first figure's text is written.
func figurePass(ctx context.Context, tr *tracer, parent int, order []figureJob) (*passResult, error) {
	experiments.ResetPlatforms()
	thermal.ResetInfluenceCache()
	pid := tr.begin(parent, "figures.pass")
	start := time.Now()
	outs, err := runner.Map(ctx, order, runner.Options{}, func(ctx context.Context, _ int, j figureJob) (*figureOut, error) {
		id := tr.begin(pid, "experiments."+j.exp.ID)
		t0 := time.Now()
		r, err := experiments.RunWithDuration(ctx, j.exp, j.duration)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.exp.ID, err)
		}
		tables, ok := experiments.TablesOf(r)
		if !ok {
			return nil, fmt.Errorf("%s has no structured output", j.exp.ID)
		}
		rid := tr.begin(id, "report.Render")
		r0 := time.Now()
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "==== %s ====\n", j.exp.ID)
		if err := r.Render(&buf); err != nil {
			return nil, fmt.Errorf("%s: render: %w", j.exp.ID, err)
		}
		fmt.Fprintln(&buf)
		renderMS := msSince(r0)
		tr.end(rid, nil)
		tr.end(id, nil)
		return &figureOut{text: buf.Bytes(), tables: tables, ms: msSince(t0), renderMS: renderMS}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &passResult{outs: make(map[string]*figureOut, len(outs))}
	for i, o := range outs {
		res.outs[order[i].exp.ID] = o
		res.renderMS += o.renderMS
	}
	for i, e := range experiments.Registry() {
		if _, err := io.Discard.Write(res.outs[e.ID].text); err != nil {
			return nil, err
		}
		if i == 0 {
			res.firstOutMS = msSince(start)
		}
	}
	res.wallMS = msSince(start)
	tr.end(pid, nil)
	return res, nil
}

// checkFigures compares every figure of a pass with its corpus entry and
// returns one line per mismatched figure.
func checkFigures(jobs []figureJob, pr *passResult) []string {
	var bad []string
	for _, j := range jobs {
		o := pr.outs[j.exp.ID]
		if o == nil {
			bad = append(bad, j.exp.ID+": missing")
			continue
		}
		if msg := compareTables(o.tables, j.golden); msg != "" {
			bad = append(bad, j.exp.ID+": "+msg)
		}
	}
	return bad
}

// compareTables diffs recomputed tables against a corpus entry at the
// entry's tolerance: a numeric cell matches when |got−want| ≤
// abs + rel·|want|, any other cell must match exactly. It returns the
// first mismatch, or "".
func compareTables(got []*report.Table, g *goldenFile) string {
	if len(got) != len(g.Tables) {
		return fmt.Sprintf("table count %d, corpus %d", len(got), len(g.Tables))
	}
	abs, rel := g.Tolerance.Abs, g.Tolerance.Rel
	for ti, want := range g.Tables {
		have := got[ti]
		if !textClose(have.Title, want.Title, abs, rel) {
			return fmt.Sprintf("table %d title %q, corpus %q", ti+1, have.Title, want.Title)
		}
		if strings.Join(have.Columns, "\x00") != strings.Join(want.Columns, "\x00") {
			return fmt.Sprintf("table %d columns %q, corpus %q", ti+1, have.Columns, want.Columns)
		}
		if len(have.Rows) != len(want.Rows) || len(have.Notes) != len(want.Notes) {
			return fmt.Sprintf("table %d shape %d rows/%d notes, corpus %d/%d",
				ti+1, len(have.Rows), len(have.Notes), len(want.Rows), len(want.Notes))
		}
		for ri := range want.Rows {
			if len(have.Rows[ri]) != len(want.Rows[ri]) {
				return fmt.Sprintf("table %d row %d: %d cells, corpus %d", ti+1, ri+1, len(have.Rows[ri]), len(want.Rows[ri]))
			}
			for ci := range want.Rows[ri] {
				if !cellClose(have.Rows[ri][ci], want.Rows[ri][ci], abs, rel) {
					return fmt.Sprintf("table %d row %d col %d: %q, corpus %q",
						ti+1, ri+1, ci+1, have.Rows[ri][ci], want.Rows[ri][ci])
				}
			}
		}
		for ni := range want.Notes {
			if !textClose(have.Notes[ni], want.Notes[ni], abs, rel) {
				return fmt.Sprintf("table %d note %d: %q, corpus %q", ti+1, ni+1, have.Notes[ni], want.Notes[ni])
			}
		}
	}
	return ""
}

// cellNumber parses a formatted cell, allowing the "x" and "%" suffixes
// the report formatter appends.
func cellNumber(s string) (float64, bool) {
	for _, suf := range []string{"", "x", "%"} {
		if rest, ok := strings.CutSuffix(s, suf); ok {
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func cellClose(got, want string, abs, rel float64) bool {
	if got == want {
		return true
	}
	g, ok1 := cellNumber(got)
	w, ok2 := cellNumber(want)
	return ok1 && ok2 && math.Abs(g-w) <= abs+rel*math.Abs(w)
}

// textClose compares titles and notes token by token, so numbers inside
// them get the cell tolerance.
func textClose(got, want string, abs, rel float64) bool {
	if got == want {
		return true
	}
	gt, wt := strings.Fields(got), strings.Fields(want)
	if len(gt) != len(wt) {
		return false
	}
	for i := range gt {
		if !cellClose(strings.Trim(gt[i], "(),:"), strings.Trim(wt[i], "(),:"), abs, rel) {
			return false
		}
	}
	return true
}

// heavySlots cycles the queue positions of fig12 and fig13, the two
// figures that take about 80% of a pass. Where they sit in the queue moves
// a pass by up to 20% on two workers (both first is fastest, one first and
// one last slowest), so every run walks the same cycle of placements from
// the first, whatever the seed, alternating fast and slow ones so that any
// prefix is balanced; the seed orders everything else.
var heavySlots = [][2]int{{0, 1}, {0, 13}, {4, 5}, {0, 6}, {7, 13}, {12, 13}, {3, 10}}

// passOrder returns pass i's queue: the heavy figures at the cycle's
// positions for i, in seeded order, the other figures in seeded order
// around them.
func passOrder(rng *rand.Rand, jobs []figureJob, i int) []figureJob {
	var heavy, light []figureJob
	for _, j := range jobs {
		if j.exp.ID == "fig12" || j.exp.ID == "fig13" {
			heavy = append(heavy, j)
		} else {
			light = append(light, j)
		}
	}
	rng.Shuffle(len(light), func(a, b int) { light[a], light[b] = light[b], light[a] })
	rng.Shuffle(len(heavy), func(a, b int) { heavy[a], heavy[b] = heavy[b], heavy[a] })
	slots := heavySlots[i%len(heavySlots)]
	out := make([]figureJob, 0, len(jobs))
	for pos := range len(jobs) {
		switch pos {
		case slots[0]:
			out = append(out, heavy[0])
		case slots[1]:
			out = append(out, heavy[1])
		default:
			out = append(out, light[0])
			light = light[1:]
		}
	}
	return out
}

// figuresSetupRepeats is higher than the server workloads' setupRepeats
// because one set-up takes only milliseconds.
const figuresSetupRepeats = 51

// figuresSetup is the figures workload's set-up: reading the golden
// corpus the outputs are checked against. Nothing else is prepared, so
// that every pass starts from cold caches.
func figuresSetup() ([]figureJob, float64, error) {
	t0 := time.Now()
	jobs, err := loadFigureJobs()
	return jobs, msSince(t0) / 1000, err
}

// runFigures is the untraced figures workload: passes back to back until
// the time budget is spent, each in its own seeded order.
func runFigures(ctx context.Context, rng *rand.Rand, seconds float64, out *workloadResult) error {
	var setups []float64
	var jobs []figureJob
	for range figuresSetupRepeats {
		j, s, err := figuresSetup()
		if err != nil {
			return err
		}
		jobs = j
		setups = append(setups, s)
	}
	heap := startHeapSampler(heapEvery)
	var walls, firsts []float64
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < seconds; pass++ {
		pr, err := figurePass(ctx, nil, 0, passOrder(rng, jobs, pass))
		if err != nil {
			heap.finish()
			return err
		}
		walls = append(walls, pr.wallMS)
		firsts = append(firsts, pr.firstOutMS)
		out.attempted += len(jobs)
		for _, b := range checkFigures(jobs, pr) {
			out.failed++
			out.notes = append(out.notes, "golden mismatch: "+b)
		}
	}
	window := time.Since(start).Seconds()
	peak, heapSamples := heap.finish()
	if len(walls) == 0 {
		return fmt.Errorf("figures: no pass completed")
	}
	out.props = append(out.props,
		fmt.Sprintf("passes=%d figures_per_pass=%d transient_duration_s=2 (golden corpus options) workers=GOMAXPROCS order=seeded per pass, fig12/fig13 positions cycling", len(walls), len(jobs)))
	figuresPerS := make([]float64, len(walls))
	for i, w := range walls {
		figuresPerS[i] = float64(len(jobs)) / (w / 1000)
	}
	m := &out.metrics
	m.add("setup_s", "s", median(setups), setups)
	wallS := scale(walls, 1e-3)
	m.add("wall_s", "s", median(wallS), wallS)
	m.add("latency_p50_ms", "ms", median(walls), walls)
	m.add("latency_p90_ms", "ms", quantile(walls, 0.9), walls)
	m.add("latency_p99_ms", "ms", quantile(walls, 0.99), walls)
	m.add("first_point_ms", "ms", median(firsts), firsts)
	m.add("throughput_per_s", "1/s", float64(len(walls)*len(jobs))/window, figuresPerS)
	m.add("peak_heap_mb", "MiB", peak, heapSamples)
	return nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
