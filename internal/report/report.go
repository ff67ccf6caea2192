// Package report renders experiment results as aligned ASCII tables and
// compact ASCII charts. The cmd/darksim harness uses it to print the
// same rows and series the paper's tables and figures report.
package report

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a titled grid of string cells. The exported fields marshal
// directly to JSON, which is how the service layer and `darksim -format
// json` ship experiment results to machine consumers.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes are free-form summary lines that belong with the table (the
	// "max dark silicon at fmax: 37%" style conclusions the paper prints
	// under its figures). Render emits them after the grid, one per line.
	Notes []string `json:"notes,omitempty"`
}

// ErrShape is returned when rows do not match the column count, or when
// a table has no columns at all.
var ErrShape = errors.New("report: row length does not match columns")

// AddNote appends a formatted summary line to the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// check validates the grid shape Render relies on.
func (t *Table) check() error {
	if len(t.Columns) == 0 {
		return fmt.Errorf("%w: table %q has no columns", ErrShape, t.Title)
	}
	for _, r := range t.Rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("%w: got %d cells, want %d", ErrShape, len(r), len(t.Columns))
		}
	}
	return nil
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddFloatRow appends a row with a leading label and %.numbers formatted
// with the given precision.
func (t *Table) AddFloatRow(label string, precision int, values ...float64) {
	row := make([]string, 0, len(values)+1)
	row = append(row, label)
	for _, v := range values {
		row = append(row, fmt.Sprintf("%.*f", precision, v))
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns, followed by its notes.
func (t *Table) Render(w io.Writer) error {
	if err := t.check(); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	bw := bufio.NewWriter(w)
	if t.Title != "" {
		fmt.Fprintln(bw, t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], c)
		}
		fmt.Fprintln(bw)
	}
	writeRow(t.Columns)
	var rule []string
	for _, wd := range widths {
		rule = append(rule, strings.Repeat("-", wd))
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(bw, n)
	}
	return bw.Flush()
}

// Chart renders one or more (x, y) series as a fixed-size ASCII chart —
// enough to eyeball the shape of a paper figure in a terminal.
type Chart struct {
	Title  string
	Width  int // plot columns (default 72)
	Height int // plot rows (default 16)
	XLabel string
}

// seriesGlyphs mark successive series in a chart.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// RenderLines plots the series; each gets the next glyph. Series may have
// different lengths but share the axis ranges.
func (c *Chart) RenderLines(w io.Writer, names []string, xs, ys [][]float64) error {
	if len(xs) != len(ys) || len(names) != len(xs) {
		return errors.New("report: chart series count mismatch")
	}
	if len(xs) == 0 {
		return errors.New("report: chart with no series")
	}
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 16
	}
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	total := 0
	for si := range xs {
		if len(xs[si]) != len(ys[si]) {
			return fmt.Errorf("report: series %q x/y length mismatch", names[si])
		}
		total += len(xs[si])
		for i := range xs[si] {
			xMin, xMax = math.Min(xMin, xs[si][i]), math.Max(xMax, xs[si][i])
			yMin, yMax = math.Min(yMin, ys[si][i]), math.Max(yMax, ys[si][i])
		}
	}
	if total == 0 {
		return errors.New("report: chart with no points")
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si := range xs {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for i := range xs[si] {
			px := int(math.Round((xs[si][i] - xMin) / (xMax - xMin) * float64(width-1)))
			py := int(math.Round((ys[si][i] - yMin) / (yMax - yMin) * float64(height-1)))
			grid[height-1-py][px] = glyph
		}
	}
	bw := bufio.NewWriter(w)
	if c.Title != "" {
		fmt.Fprintln(bw, c.Title)
	}
	for i, name := range names {
		fmt.Fprintf(bw, "  %c %s\n", seriesGlyphs[i%len(seriesGlyphs)], name)
	}
	fmt.Fprintf(bw, "%10.3g ┌%s┐\n", yMax, strings.Repeat("─", width))
	for i, row := range grid {
		label := strings.Repeat(" ", 10)
		if i == height-1 {
			label = fmt.Sprintf("%10.3g", yMin)
		}
		fmt.Fprintf(bw, "%s │%s│\n", label, row)
	}
	fmt.Fprintf(bw, "%s └%s┘\n", strings.Repeat(" ", 10), strings.Repeat("─", width))
	fmt.Fprintf(bw, "%s  %-10.3g%s%10.3g", strings.Repeat(" ", 10), xMin,
		strings.Repeat(" ", max(0, width-20)), xMax)
	if c.XLabel != "" {
		fmt.Fprintf(bw, "  [%s]", c.XLabel)
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}

// Heatmap renders a 2-D scalar field (e.g. a chip thermal map) as ASCII
// intensity cells — the textual analogue of the paper's Figure 8 thermal
// profiles.
type Heatmap struct {
	Title string
	// Min and Max clamp the colour scale; when both are zero the data
	// range is used.
	Min, Max float64
}

// heatGlyphs order from coolest to hottest.
var heatGlyphs = []byte(" .:-=+*#%@")

// RenderGrid draws the row-major rows×cols field. Row 0 renders at the
// bottom (matching floorplan coordinates).
func (h *Heatmap) RenderGrid(w io.Writer, values []float64, rows, cols int) error {
	if rows <= 0 || cols <= 0 || len(values) != rows*cols {
		return fmt.Errorf("report: heatmap %dx%d with %d values", rows, cols, len(values))
	}
	lo, hi := h.Min, h.Max
	if lo == 0 && hi == 0 {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	bw := bufio.NewWriter(w)
	if h.Title != "" {
		fmt.Fprintln(bw, h.Title)
	}
	for r := rows - 1; r >= 0; r-- {
		for c := 0; c < cols; c++ {
			v := values[r*cols+c]
			idx := int((v - lo) / (hi - lo) * float64(len(heatGlyphs)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(heatGlyphs) {
				idx = len(heatGlyphs) - 1
			}
			g := heatGlyphs[idx]
			bw.WriteByte(g)
			bw.WriteByte(g)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "scale: '%c' = %.1f .. '%c' = %.1f\n",
		heatGlyphs[0], lo, heatGlyphs[len(heatGlyphs)-1], hi)
	return bw.Flush()
}
