package verify

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"darksim/internal/experiments"
	"darksim/internal/report"
)

func TestCellClose(t *testing.T) {
	tol := Tolerance{Abs: 1e-6, Rel: 2e-3}
	cases := []struct {
		got, want string
		ok        bool
	}{
		{"1.000", "1.000", true},
		{"1.001", "1.000", true},   // within rel
		{"1.003", "1.000", false},  // outside rel
		{"0.89", "0.88", false},    // an ITRS factor flip must fail
		{"2.17x", "2.17x", true},   // suffix, exact
		{"2.171x", "2.170x", true}, // suffix, within rel
		{"37%", "38%", false},      // percent flip fails
		{"x264", "x264", true},     // non-numeric, exact
		{"x264", "x265", false},    // non-numeric, different
		{"0.0000005", "0", true},   // within abs around zero
	}
	for _, c := range cases {
		if got := cellClose(c.got, c.want, tol); got != c.ok {
			t.Errorf("cellClose(%q, %q) = %v, want %v", c.got, c.want, got, c.ok)
		}
	}
}

func TestNoteClose(t *testing.T) {
	tol := Tolerance{Abs: 1e-6, Rel: 2e-3}
	if !noteClose("max dark silicon at fmax: 37.001%", "max dark silicon at fmax: 37%", tol) {
		t.Error("note with in-tolerance number should match")
	}
	if noteClose("max dark silicon at fmax: 39%", "max dark silicon at fmax: 37%", tol) {
		t.Error("note with drifted number should not match")
	}
	if noteClose("a b", "a b c", tol) {
		t.Error("different token counts should not match")
	}
}

func TestCompareToGoldenNamesCell(t *testing.T) {
	mk := func() *report.Table {
		tb := &report.Table{
			Title:   "Golden table",
			Columns: []string{"node", "Vdd [V]"},
		}
		tb.AddRow("16", "0.89")
		tb.AddRow("11", "0.81")
		tb.AddNote("two nodes")
		return tb
	}
	g := &GoldenFile{ID: "figX", Tolerance: DefaultTolerance, Tables: []*report.Table{mk()}}

	if fails := compareToGolden("figX", []*report.Table{mk()}, g); len(fails) != 0 {
		t.Fatalf("identical tables reported failures: %v", fails)
	}
	mut := mk()
	mut.Rows[0][1] = "0.88"
	fails := compareToGolden("figX", []*report.Table{mut}, g)
	if len(fails) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(fails), fails)
	}
	d := fails[0].Detail
	for _, want := range []string{"Golden table", "row 1", "Vdd [V]", `"0.88"`, `"0.89"`} {
		if !strings.Contains(d, want) {
			t.Errorf("failure detail %q does not name %q", d, want)
		}
	}
}

func TestParseRenderedTableRoundTrip(t *testing.T) {
	tb := &report.Table{
		Title:   "Figure X: cells with spaces and unicode (TDTM = 80 °C)",
		Columns: []string{"app", "T [°C]", "status"},
	}
	tb.AddRow("x264", "79.5", "ok")
	tb.AddRow("dedup", "81.2", "violates TDTM")
	tb.AddNote("one violation at ×1.1 over budget")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := parseRenderedTable(buf.String(), len(tb.Rows))
	if err != nil {
		t.Fatalf("parse: %v\ntext:\n%s", err, buf.String())
	}
	if err := tablesEqualExact(got, tb); err != nil {
		t.Fatalf("round-trip mismatch: %v\ntext:\n%s", err, buf.String())
	}
}

func TestDiffRenderingsClean(t *testing.T) {
	tb := &report.Table{Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddNote("n")
	if fails := diffRenderings("figX", []*report.Table{tb}); len(fails) != 0 {
		t.Fatalf("clean table produced failures: %v", fails)
	}
}

func TestInvariantEngineCatchesViolations(t *testing.T) {
	good := &experiments.Fig5Result{
		TDPs: []float64{220},
		Cells: map[float64][]experiments.Fig5Cell{
			220: {{App: "x264", FGHz: 3.6, ActivePercent: 62, DarkPercent: 38}},
		},
	}
	if err := checkDarkFractionRange(good); err != nil {
		t.Fatalf("valid result flagged: %v", err)
	}
	bad := &experiments.Fig5Result{
		TDPs: []float64{220},
		Cells: map[float64][]experiments.Fig5Cell{
			220: {{App: "x264", FGHz: 3.6, ActivePercent: 70, DarkPercent: 38}},
		},
	}
	if err := checkDarkFractionRange(bad); err == nil {
		t.Fatal("active+dark != 100 not flagged")
	}
	outOfRange := &experiments.Fig5Result{
		TDPs: []float64{220},
		Cells: map[float64][]experiments.Fig5Cell{
			220: {{App: "x264", FGHz: 3.6, ActivePercent: 120, DarkPercent: -20}},
		},
	}
	if err := checkDarkFractionRange(outOfRange); err == nil {
		t.Fatal("fraction outside [0,100] not flagged")
	}
}

func TestStandaloneInvariants(t *testing.T) {
	// The model-level invariants run against the real packages with no
	// figure input; they must hold on a clean tree.
	for _, inv := range Invariants() {
		if inv.Figure != "" {
			continue
		}
		if err := inv.Check(nil); err != nil {
			t.Errorf("%s: %v — pins %s", inv.Name, err, inv.Pins)
		}
	}
}

func TestSpecsCoverRegistry(t *testing.T) {
	specs := Specs()
	reg := experiments.Registry()
	if len(specs) != len(reg) {
		t.Fatalf("got %d specs, registry has %d figures", len(specs), len(reg))
	}
	for i, sp := range specs {
		if sp.ID != reg[i].ID {
			t.Errorf("spec %d is %s, registry has %s", i, sp.ID, reg[i].ID)
		}
	}
}

func TestSelectSpecsRejectsUnknown(t *testing.T) {
	if _, err := selectSpecs([]string{"fig99"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	picked, err := selectSpecs([]string{"fig5", "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 || picked[0].ID != "fig1" || picked[1].ID != "fig5" {
		t.Fatalf("subset not sorted to figure order: %v", picked)
	}
}

// TestRunFastSubset runs the full pipeline (golden, invariants,
// differential, HTTP) over the cheap analytic figures against the
// committed corpus.
func TestRunFastSubset(t *testing.T) {
	fails, err := Run(context.Background(), Options{
		Figures: []string{"fig1", "fig2", "fig4"},
		Out:     io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fails {
		t.Errorf("unexpected failure: %s", f)
	}
}
