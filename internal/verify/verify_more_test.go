package verify

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"os"
	"strings"
	"testing"
	"testing/fstest"

	"darksim/internal/experiments"
	"darksim/internal/report"
	"darksim/internal/sim"
	"darksim/internal/tech"
	"darksim/internal/tsp"
	"darksim/internal/vf"
)

func TestFailureString(t *testing.T) {
	f := Failure{Figure: "fig7", Check: "golden", Detail: "cell drifted"}
	if got := f.String(); got != "fig7 [golden]: cell drifted" {
		t.Fatalf("Failure.String() = %q", got)
	}
}

func TestFirstDiff(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"abc", "abc", 3},
		{"abc", "abd", 2},
		{"abc", "abcdef", 3},
		{"", "x", 0},
		{"xbc", "ybc", 0},
	}
	for _, c := range cases {
		if got := firstDiff(c.a, c.b); got != c.want {
			t.Errorf("firstDiff(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFigOrderNonFigure(t *testing.T) {
	if figOrder("fig3") != 3 {
		t.Error("fig3 not ordered numerically")
	}
	if figOrder("weird") != 1<<30 {
		t.Error("non-figure id not sorted last")
	}
}

func TestTablesEqualExactMismatches(t *testing.T) {
	mk := func() *report.Table {
		tb := &report.Table{Title: "T", Columns: []string{"a", "b"}}
		tb.AddRow("1", "2")
		tb.AddNote("n")
		return tb
	}
	if err := tablesEqualExact(mk(), mk()); err != nil {
		t.Fatalf("identical tables unequal: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*report.Table)
		want   string
	}{
		{"title", func(tb *report.Table) { tb.Title = "U" }, "title"},
		{"column count", func(tb *report.Table) { tb.Columns = tb.Columns[:1] }, "column count"},
		{"column name", func(tb *report.Table) { tb.Columns[1] = "c" }, "column 2"},
		{"row count", func(tb *report.Table) { tb.AddRow("3", "4") }, "row count"},
		{"cell count", func(tb *report.Table) { tb.Rows[0] = tb.Rows[0][:1] }, "row 1"},
		{"cell value", func(tb *report.Table) { tb.Rows[0][1] = "9" }, "col 2"},
		{"note count", func(tb *report.Table) { tb.AddNote("m") }, "note count"},
		{"note value", func(tb *report.Table) { tb.Notes[0] = "m" }, "note 1"},
	}
	for _, c := range cases {
		mut := mk()
		c.mutate(mut)
		err := tablesEqualExact(mut, mk())
		if err == nil {
			t.Errorf("%s: mutation not detected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

func TestCompareToGoldenStructuralMismatches(t *testing.T) {
	mk := func() *report.Table {
		tb := &report.Table{Title: "T", Columns: []string{"a", "b"}}
		tb.AddRow("1", "2")
		tb.AddNote("note 1")
		return tb
	}
	golden := &GoldenFile{ID: "figX", Tolerance: DefaultTolerance, Tables: []*report.Table{mk()}}
	cases := []struct {
		name   string
		tables func() []*report.Table
		want   string
	}{
		{"table count", func() []*report.Table { return nil }, "table count"},
		{"title", func() []*report.Table { tb := mk(); tb.Title = "U V"; return []*report.Table{tb} }, "title"},
		{"column count", func() []*report.Table { tb := mk(); tb.Columns = tb.Columns[:1]; return []*report.Table{tb} }, "column count"},
		{"column name", func() []*report.Table { tb := mk(); tb.Columns[0] = "z"; return []*report.Table{tb} }, "column 1"},
		{"row count", func() []*report.Table { tb := mk(); tb.AddRow("3", "4"); return []*report.Table{tb} }, "row count"},
		{"short row", func() []*report.Table { tb := mk(); tb.Rows[0] = tb.Rows[0][:1]; return []*report.Table{tb} }, "cells"},
		{"note count", func() []*report.Table { tb := mk(); tb.AddNote("extra"); return []*report.Table{tb} }, "note count"},
		{"note drift", func() []*report.Table { tb := mk(); tb.Notes[0] = "note 9"; return []*report.Table{tb} }, "note 1"},
	}
	for _, c := range cases {
		fails := compareToGolden("figX", c.tables(), golden)
		if len(fails) == 0 {
			t.Errorf("%s: mismatch not reported", c.name)
			continue
		}
		if !strings.Contains(fails[0].Detail, c.want) {
			t.Errorf("%s: failure %q does not name %q", c.name, fails[0].Detail, c.want)
		}
	}
}

func TestLoadGoldenErrors(t *testing.T) {
	fsys := fstest.MapFS{
		"bad.json":      {Data: []byte("{not json")},
		"mislabel.json": {Data: []byte(`{"id": "other", "tables": []}`)},
		"ok.json":       {Data: []byte(`{"id": "ok", "tolerance": {"abs": 1e-6, "rel": 2e-3}, "tables": []}`)},
	}
	if _, err := loadGolden(fsys, "missing"); err == nil {
		t.Error("missing corpus entry not reported")
	}
	if _, err := loadGolden(fsys, "bad"); err == nil {
		t.Error("malformed corpus entry not reported")
	}
	if _, err := loadGolden(fsys, "mislabel"); err == nil || !strings.Contains(err.Error(), "declares id") {
		t.Errorf("id mismatch not reported: %v", err)
	}
	g, err := loadGolden(fsys, "ok")
	if err != nil || g.ID != "ok" {
		t.Errorf("valid corpus entry rejected: %v", err)
	}
}

// TestCheckBoostEnergySynthetic exercises every branch of the §6 boost
// invariant on constructed Fig11 results.
func TestCheckBoostEnergySynthetic(t *testing.T) {
	mk := func() *experiments.Fig11Result {
		return &experiments.Fig11Result{
			AvgBoost: 160, AvgConst: 150, TDTM: 80,
			Boost:    sim.Result{EnergyJ: 220, MaxTempC: 80.4},
			Constant: sim.Result{EnergyJ: 180, MaxTempC: 79.0},
		}
	}
	if err := checkBoostEnergy(mk()); err != nil {
		t.Fatalf("valid result flagged: %v", err)
	}
	if err := checkBoostEnergy(&experiments.Fig5Result{}); err == nil {
		t.Error("wrong result type accepted")
	}
	cases := []struct {
		name   string
		mutate func(*experiments.Fig11Result)
		want   string
	}{
		{"lost throughput", func(r *experiments.Fig11Result) { r.AvgBoost = 140 }, "lost throughput"},
		{"non-positive", func(r *experiments.Fig11Result) { r.AvgBoost, r.AvgConst = 0, 0 }, "non-positive"},
		{"cheaper energy per work", func(r *experiments.Fig11Result) { r.Boost.EnergyJ = 100 }, "energy/work"},
		{"thermal runaway", func(r *experiments.Fig11Result) { r.Boost.MaxTempC = 85 }, "exceeds TDTM"},
	}
	for _, c := range cases {
		r := mk()
		c.mutate(r)
		err := checkBoostEnergy(r)
		if err == nil {
			t.Errorf("%s: not flagged", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// TestCheckTSPDominatesRecomputes builds a real 16 nm TSP row and checks
// the invariant accepts it, then rejects a drifted budget.
func TestCheckTSPDominatesRecomputes(t *testing.T) {
	if err := checkTSPDominates(&experiments.Fig5Result{}); err == nil {
		t.Error("wrong result type accepted")
	}
	cores := experiments.CoresForNode(tech.Node16)
	p, err := experiments.PlatformFor(tech.Node16, cores)
	if err != nil {
		t.Fatal(err)
	}
	calc, err := tsp.New(p.Thermal, p.TDTM)
	if err != nil {
		t.Fatal(err)
	}
	active := cores * 8 / 10
	budget, _, err := calc.WorstCase(context.Background(), active)
	if err != nil {
		t.Fatal(err)
	}
	row := experiments.Fig10Row{
		Node: tech.Node16, Cores: cores, DarkPercent: 20,
		ActiveCores: active, TSPPerCoreW: budget,
	}
	if err := checkTSPDominates(&experiments.Fig10Result{Rows: []experiments.Fig10Row{row}}); err != nil {
		t.Fatalf("consistent TSP row flagged: %v", err)
	}
	row.TSPPerCoreW = budget * 1.01
	err = checkTSPDominates(&experiments.Fig10Result{Rows: []experiments.Fig10Row{row}})
	if err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("drifted TSP budget not flagged: %v", err)
	}
}

// TestPolicySandboxLayer runs verification layer 5 directly: a clean
// tree must produce zero failures.
func TestPolicySandboxLayer(t *testing.T) {
	for _, f := range checkPolicySandbox(context.Background()) {
		t.Errorf("unexpected failure: %s", f)
	}
}

// TestScenarioDifferentialLayer runs verification layer 4 directly.
func TestScenarioDifferentialLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario differential sweeps every node: skipped in -short")
	}
	for _, f := range checkScenarioDifferential(context.Background()) {
		t.Errorf("unexpected failure: %s", f)
	}
}

// TestGoldenUpdateRoundTrip regenerates a corpus subset into a temp dir
// and requires each written file to equal its embedded corpus entry
// byte for byte — covering the -update path and golden file IO; the
// checking direction is TestRunFastSubset.
func TestGoldenUpdateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	figs := []string{"fig1", "fig2"}
	fails, err := Run(context.Background(), Options{
		Figures:   figs,
		Update:    true,
		GoldenDir: dir,
		Out:       io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("update run reported failures: %v", fails)
	}
	for _, id := range figs {
		got, err := os.ReadFile(dir + "/" + id + ".json")
		if err != nil {
			t.Fatalf("update did not write %s: %v", id, err)
		}
		want, err := fs.ReadFile(experiments.GoldenCorpus(), id+".json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: regenerated file differs from the embedded corpus", id)
		}
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if _, err := Run(context.Background(), Options{Figures: []string{"fig99"}}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestCheckEq2CurveMonotoneBranches(t *testing.T) {
	if err := checkEq2CurveMonotone(&experiments.Fig5Result{}); err == nil {
		t.Error("wrong result type accepted")
	}
	notMonotone := &experiments.Fig2Result{
		Vdd:    []float64{0.5, 0.6},
		FGHz:   []float64{2.0, 1.5},
		Region: []vf.Region{vf.RegionNTC, vf.RegionNTC},
	}
	if err := checkEq2CurveMonotone(notMonotone); err == nil || !strings.Contains(err.Error(), "not monotone") {
		t.Errorf("falling f(Vdd) not flagged: %v", err)
	}
	regionOrder := &experiments.Fig2Result{
		Vdd:    []float64{0.5, 0.6},
		FGHz:   []float64{1.5, 2.0},
		Region: []vf.Region{vf.RegionSTC, vf.RegionNTC},
	}
	if err := checkEq2CurveMonotone(regionOrder); err == nil || !strings.Contains(err.Error(), "region order") {
		t.Errorf("region regression not flagged: %v", err)
	}
}

func TestCheckAmdahlLimitBranches(t *testing.T) {
	if err := checkAmdahlLimit(&experiments.Fig5Result{}); err == nil {
		t.Error("wrong result type accepted")
	}
	over := &experiments.Fig4Result{
		Threads: []int{16, 32},
		Apps:    []string{"x264"},
		Speedup: map[string][]float64{"x264": {2.5, 1e6}},
	}
	if err := checkAmdahlLimit(over); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("speedup above the Amdahl limit not flagged: %v", err)
	}
	falling := &experiments.Fig4Result{
		Threads: []int{16, 32},
		Apps:    []string{"x264"},
		Speedup: map[string][]float64{"x264": {2.5, 2.0}},
	}
	if err := checkAmdahlLimit(falling); err == nil || !strings.Contains(err.Error(), "decreased") {
		t.Errorf("falling speedup not flagged: %v", err)
	}
}

func TestComputeAllErrors(t *testing.T) {
	ctx := context.Background()
	boom := figureSpec{ID: "boom", Run: func(context.Context) (experiments.Renderer, error) {
		return nil, context.DeadlineExceeded
	}}
	if _, err := computeAll(ctx, []figureSpec{boom}, 1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failing figure not reported: %v", err)
	}
}

func TestCheckDeterminismBranches(t *testing.T) {
	mkTable := func(cell string) []*report.Table {
		tb := &report.Table{Title: "T", Columns: []string{"a"}}
		tb.AddRow(cell)
		return []*report.Table{tb}
	}
	stable := stubResult{tables: mkTable("1")}
	results := []*figureResult{
		{spec: figureSpec{ID: "ok", Run: func(context.Context) (experiments.Renderer, error) {
			return stable, nil
		}}, tables: stable.tables},
		{spec: figureSpec{ID: "err", Run: func(context.Context) (experiments.Renderer, error) {
			return nil, context.DeadlineExceeded
		}}, tables: mkTable("1")},
		{spec: figureSpec{ID: "drift", Run: func(context.Context) (experiments.Renderer, error) {
			return stubResult{tables: mkTable("2")}, nil
		}}, tables: mkTable("1")},
	}
	fails := checkDeterminism(context.Background(), results)
	if len(fails) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(fails), fails)
	}
	wants := map[string]string{
		"err":   "recomputation failed",
		"drift": "rendered differently",
	}
	for _, f := range fails {
		if want := wants[f.Figure]; want == "" || !strings.Contains(f.Detail, want) {
			t.Errorf("unexpected failure %s", f)
		}
	}
}

func TestStubResultRender(t *testing.T) {
	tb := &report.Table{Title: "T", Columns: []string{"a"}}
	tb.AddRow("1")
	if err := (stubResult{tables: []*report.Table{tb}}).Render(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestWriteGoldenRejectsBadDir(t *testing.T) {
	file := t.TempDir() + "/occupied"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := &GoldenFile{ID: "figX", Tolerance: DefaultTolerance}
	if _, err := writeGolden(file+"/nested", g); err == nil {
		t.Fatal("writeGolden under a regular file succeeded")
	}
}

func TestDiffRenderingsDegenerateTable(t *testing.T) {
	// A table with no columns renders without a header rule, so the text
	// round-trip cannot recover it; the differential layer must say so
	// rather than pass vacuously.
	if fails := diffRenderings("figX", []*report.Table{{Title: "empty"}}); len(fails) == 0 {
		t.Fatal("unparsable rendering produced no failures")
	}
}
