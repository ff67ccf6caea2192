package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "Demo", Columns: []string{"app", "gips", "dark %"}}
	tb.AddRow("x264", "123.4", "37")
	tb.AddFloatRow("swaptions", 1, 99.95, 46)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "app", "x264", "swaptions", "100.0", "46.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: header and first row start of column 2 match.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
	hdrIdx := strings.Index(lines[1], "gips")
	rowIdx := strings.Index(lines[3], "123.4")
	if hdrIdx != rowIdx {
		t.Errorf("columns misaligned: %d vs %d\n%s", hdrIdx, rowIdx, out)
	}
}

func TestTableRenderShapeError(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow("only-one")
	if err := tb.Render(&bytes.Buffer{}); err == nil {
		t.Errorf("mismatched row should error")
	}
}

func TestTableRenderNotes(t *testing.T) {
	tb := &Table{Columns: []string{"a"}}
	tb.AddRow("1")
	tb.AddNote("max dark silicon at fmax: %d%%", 37)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "max dark silicon at fmax: 37%\n") {
		t.Errorf("note not rendered after grid:\n%s", buf.String())
	}
}

func TestTableZeroColumns(t *testing.T) {
	tb := &Table{Title: "empty"}
	if err := tb.Render(&bytes.Buffer{}); !errors.Is(err, ErrShape) {
		t.Errorf("zero-column Render: got %v, want ErrShape", err)
	}
	// A zero-column table with rows is equally malformed.
	tb.Rows = [][]string{{"cell"}}
	if err := tb.Render(&bytes.Buffer{}); !errors.Is(err, ErrShape) {
		t.Errorf("zero-column Render with rows: got %v, want ErrShape", err)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "b"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"title":"T"`, `"columns":["a","b"]`, `"rows":[["1","2"]]`, `"notes":["n"]`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s: %s", want, data)
		}
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != tb.Title || len(back.Rows) != 1 || back.Rows[0][1] != "2" {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

func TestChartRenderLines(t *testing.T) {
	c := &Chart{Title: "T", Width: 40, Height: 8, XLabel: "GHz"}
	xs := [][]float64{{0, 1, 2, 3}, {0, 1, 2, 3}}
	ys := [][]float64{{0, 1, 4, 9}, {9, 4, 1, 0}}
	var buf bytes.Buffer
	if err := c.RenderLines(&buf, []string{"up", "down"}, xs, ys); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T", "up", "down", "*", "o", "GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestChartErrors(t *testing.T) {
	c := &Chart{}
	if err := c.RenderLines(&bytes.Buffer{}, nil, nil, nil); err == nil {
		t.Errorf("no series should error")
	}
	if err := c.RenderLines(&bytes.Buffer{}, []string{"a"}, [][]float64{{1}}, [][]float64{{1, 2}}); err == nil {
		t.Errorf("x/y mismatch should error")
	}
	if err := c.RenderLines(&bytes.Buffer{}, []string{"a", "b"}, [][]float64{{1}}, [][]float64{{1}}); err == nil {
		t.Errorf("names mismatch should error")
	}
	if err := c.RenderLines(&bytes.Buffer{}, []string{"a"}, [][]float64{{}}, [][]float64{{}}); err == nil {
		t.Errorf("empty series should error")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	c := &Chart{Width: 20, Height: 5}
	var buf bytes.Buffer
	err := c.RenderLines(&buf, []string{"flat"}, [][]float64{{1, 1, 1}}, [][]float64{{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Errorf("flat series not plotted")
	}
}

func TestHeatmapRenderGrid(t *testing.T) {
	h := &Heatmap{Title: "temps"}
	vals := []float64{
		60, 60, 60,
		60, 85, 60,
		60, 60, 60,
	}
	var buf bytes.Buffer
	if err := h.RenderGrid(&buf, vals, 3, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "temps") || !strings.Contains(out, "@@") {
		t.Errorf("heatmap missing hot cell:\n%s", out)
	}
	if !strings.Contains(out, "scale:") {
		t.Errorf("missing scale line")
	}
	// Fixed scale clamps out-of-range values without panicking.
	fixed := &Heatmap{Min: 70, Max: 80}
	if err := fixed.RenderGrid(&buf, vals, 3, 3); err != nil {
		t.Fatal(err)
	}
}

func TestHeatmapErrors(t *testing.T) {
	h := &Heatmap{}
	if err := h.RenderGrid(&bytes.Buffer{}, []float64{1, 2}, 2, 2); err == nil {
		t.Errorf("size mismatch should error")
	}
	if err := h.RenderGrid(&bytes.Buffer{}, nil, 0, 0); err == nil {
		t.Errorf("empty grid should error")
	}
	// Constant field must not divide by zero.
	if err := h.RenderGrid(&bytes.Buffer{}, []float64{5, 5, 5, 5}, 2, 2); err != nil {
		t.Errorf("constant field: %v", err)
	}
}
