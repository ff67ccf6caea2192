package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/report"
	"darksim/internal/service"
)

// tablesEqualExact compares two tables cell-for-cell with no tolerance
// (differential checks compare renderings of the same in-memory table,
// so any difference is a serialization bug, not float churn). It treats
// nil and empty slices as equal and describes the first mismatch.
func tablesEqualExact(got, want *report.Table) error {
	if got.Title != want.Title {
		return fmt.Errorf("title: got %q, want %q", got.Title, want.Title)
	}
	if len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("column count: got %d, want %d", len(got.Columns), len(want.Columns))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			return fmt.Errorf("column %d: got %q, want %q", i+1, got.Columns[i], want.Columns[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("row count: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	for ri := range want.Rows {
		if len(got.Rows[ri]) != len(want.Rows[ri]) {
			return fmt.Errorf("row %d: got %d cells, want %d", ri+1, len(got.Rows[ri]), len(want.Rows[ri]))
		}
		for ci := range want.Rows[ri] {
			if got.Rows[ri][ci] != want.Rows[ri][ci] {
				return fmt.Errorf("row %d, col %d: got %q, want %q", ri+1, ci+1, got.Rows[ri][ci], want.Rows[ri][ci])
			}
		}
	}
	if len(got.Notes) != len(want.Notes) {
		return fmt.Errorf("note count: got %d, want %d", len(got.Notes), len(want.Notes))
	}
	for i := range want.Notes {
		if got.Notes[i] != want.Notes[i] {
			return fmt.Errorf("note %d: got %q, want %q", i+1, got.Notes[i], want.Notes[i])
		}
	}
	return nil
}

// isRuleLine reports whether a rendered line is the dash rule under the
// header: dash runs separated by exactly the two-space column gap.
func isRuleLine(ln string) bool {
	if ln == "" {
		return false
	}
	for _, seg := range strings.Split(ln, "  ") {
		if seg == "" || strings.Trim(seg, "-") != "" {
			return false
		}
	}
	return true
}

// parseRenderedTable inverts Table.Render: the rule line's dash-run
// widths give the exact column boundaries, so cells containing spaces
// slice back out intact. wantRows separates data rows from trailing
// free-form notes, which the text format cannot distinguish on its own.
func parseRenderedTable(s string, wantRows int) (*report.Table, error) {
	lines := strings.Split(s, "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	rule := -1
	for i, ln := range lines {
		if isRuleLine(ln) {
			rule = i
			break
		}
	}
	if rule < 1 {
		return nil, fmt.Errorf("no header rule line in rendered text")
	}
	t := &report.Table{}
	if rule >= 2 {
		t.Title = strings.Join(lines[:rule-1], "\n")
	}
	var widths []int
	for _, seg := range strings.Split(lines[rule], "  ") {
		widths = append(widths, len(seg))
	}
	// Slice in rune space: fmt's %-*s pads to the width in runes, so
	// cells containing multi-byte characters (°C, ×) keep every line at
	// the same per-column rune width even when byte offsets diverge.
	slice := func(ln string) []string {
		rs := []rune(ln)
		cells := make([]string, len(widths))
		pos := 0
		for i, w := range widths {
			start, end := pos, pos+w
			if start > len(rs) {
				start = len(rs)
			}
			if end > len(rs) {
				end = len(rs)
			}
			cells[i] = strings.TrimRight(string(rs[start:end]), " ")
			pos = end + 2
		}
		return cells
	}
	t.Columns = slice(lines[rule-1])
	body := lines[rule+1:]
	if len(body) < wantRows {
		return nil, fmt.Errorf("rendered text has %d body lines, want at least %d rows", len(body), wantRows)
	}
	for _, ln := range body[:wantRows] {
		t.Rows = append(t.Rows, slice(ln))
	}
	t.Notes = append(t.Notes, body[wantRows:]...)
	return t, nil
}

// diffRenderings checks that the text, CSV and JSON renderings of one
// figure's tables all decode back to the same cells.
func diffRenderings(id string, tables []*report.Table) []Failure {
	var fails []Failure
	fail := func(check string, ti int, err error) {
		fails = append(fails, Failure{Figure: id, Check: check,
			Detail: fmt.Sprintf("table %d (%s): %v", ti+1, tables[ti].Title, err)})
	}
	for ti, t := range tables {
		var buf bytes.Buffer
		if err := t.Render(&buf); err != nil {
			fail("diff-text", ti, err)
		} else if parsed, err := parseRenderedTable(buf.String(), len(t.Rows)); err != nil {
			fail("diff-text", ti, err)
		} else if err := tablesEqualExact(parsed, t); err != nil {
			fail("diff-text", ti, err)
		}

		buf.Reset()
		if err := t.WriteCSV(&buf); err != nil {
			fail("diff-csv", ti, err)
		} else if parsed, err := report.ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
			fail("diff-csv", ti, err)
		} else {
			// CSV carries no title; compare the grid and notes only.
			parsed.Title = t.Title
			if err := tablesEqualExact(parsed, t); err != nil {
				fail("diff-csv", ti, err)
			}
		}

		data, err := json.Marshal(t)
		if err != nil {
			fail("diff-json", ti, err)
			continue
		}
		var parsed report.Table
		if err := json.Unmarshal(data, &parsed); err != nil {
			fail("diff-json", ti, err)
		} else if err := tablesEqualExact(&parsed, t); err != nil {
			fail("diff-json", ti, err)
		}
	}
	return fails
}

// stubResult serves precomputed tables through the Renderer interface,
// so the HTTP differential check exercises the real service pipeline
// (routing, coalescing, JSON encoding) without recomputing figures.
type stubResult struct{ tables []*report.Table }

func (s stubResult) Render(w io.Writer) error {
	for _, t := range s.tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func (s stubResult) Tables() []*report.Table { return s.tables }

// diffHTTP serves every figure's precomputed tables through an
// in-process service.Server and checks the JSON the HTTP layer returns
// decodes to the same cells.
func diffHTTP(results []*figureResult) []Failure {
	exps := make([]experiments.Experiment, 0, len(results))
	for _, fr := range results {
		res := stubResult{tables: fr.tables}
		exps = append(exps, experiments.Experiment{
			ID:          fr.spec.ID,
			Description: "verification stub serving precomputed tables",
			Run: func(context.Context, float64) (experiments.Renderer, error) {
				return res, nil
			},
		})
	}
	srv := service.New(service.Config{}, exps)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	var fails []Failure
	for _, fr := range results {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/experiments/"+fr.spec.ID, nil))
		if rec.Code != 200 {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "diff-http",
				Detail: fmt.Sprintf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))})
			continue
		}
		var resp struct {
			Tables []*report.Table `json:"tables"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "diff-http", Detail: err.Error()})
			continue
		}
		if len(resp.Tables) != len(fr.tables) {
			fails = append(fails, Failure{Figure: fr.spec.ID, Check: "diff-http",
				Detail: fmt.Sprintf("table count: got %d, want %d", len(resp.Tables), len(fr.tables))})
			continue
		}
		for ti := range fr.tables {
			if err := tablesEqualExact(resp.Tables[ti], fr.tables[ti]); err != nil {
				fails = append(fails, Failure{Figure: fr.spec.ID, Check: "diff-http",
					Detail: fmt.Sprintf("table %d (%s): %v", ti+1, fr.tables[ti].Title, err)})
			}
		}
	}
	return fails
}
