package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/report"
)

// testEnv returns a subcommand environment writing to w, with a fresh
// flag set whose misuse messages are discarded.
func testEnv(format string, w io.Writer) *env {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return &env{format: format, out: w, flags: fs}
}

func TestRunDispatch(t *testing.T) {
	ctx := context.Background()
	// A table experiment by id.
	r, err := run(ctx, "fig1", 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Errorf("fig1 rendered nothing")
	}
	// An ablation by id.
	if _, err := run(ctx, "ab-grid", 0); err != nil {
		t.Errorf("ab-grid: %v", err)
	}
	// Unknown id.
	if _, err := run(ctx, "fig99", 0); err == nil {
		t.Errorf("unknown id should error")
	}
}

func TestRunDurationOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("transient experiment")
	}
	r, err := run(context.Background(), "fig11", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadDuration pins the -duration validation: a negative or
// non-finite run length fails with ErrOptions (main exits 1) instead of
// silently running the default length, for one experiment and for `all`.
func TestRunRejectsBadDuration(t *testing.T) {
	// Besides negative and non-finite lengths, a positive one shorter
	// than the 1 ms control period is refused: no period would run.
	for _, d := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, 0.0001, 1e-9} {
		if _, err := run(context.Background(), "fig11", d); !errors.Is(err, experiments.ErrOptions) {
			t.Errorf("fig11 -duration %g: err = %v, want ErrOptions", d, err)
		}
		err := runAll(context.Background(), fastEntries(t, "fig1", "fig2"), 1, d, "text", &bytes.Buffer{})
		if !errors.Is(err, experiments.ErrOptions) || !strings.Contains(err.Error(), "fig1") {
			t.Errorf("all -duration %g: err = %v, want ErrOptions naming fig1", d, err)
		}
	}
}

// fastEntries picks quick analytic experiments for the concurrency tests.
func fastEntries(t *testing.T, ids ...string) []experiments.Experiment {
	t.Helper()
	var out []experiments.Experiment
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestRunAllOrderedOutput(t *testing.T) {
	entries := fastEntries(t, "fig1", "fig2", "fig3")

	var sequential bytes.Buffer
	if err := runAll(context.Background(), entries, 1, 0, "text", &sequential); err != nil {
		t.Fatal(err)
	}
	var parallel bytes.Buffer
	if err := runAll(context.Background(), entries, 3, 0, "text", &parallel); err != nil {
		t.Fatal(err)
	}
	if sequential.String() != parallel.String() {
		t.Errorf("parallel output differs from sequential output")
	}
	out := parallel.String()
	i1 := strings.Index(out, "==== fig1 ====")
	i2 := strings.Index(out, "==== fig2 ====")
	i3 := strings.Index(out, "==== fig3 ====")
	if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
		t.Errorf("outputs not in registry order: %d %d %d", i1, i2, i3)
	}
}

func TestRunAllReportsFailingExperiment(t *testing.T) {
	entries := fastEntries(t, "fig1")
	entries = append(entries, experiments.Experiment{
		ID:          "fig99",
		Description: "bogus",
		Run:         func(context.Context, float64) (experiments.Renderer, error) { return nil, nil },
	})
	var buf bytes.Buffer
	err := runAll(context.Background(), entries, 2, 0, "text", &buf)
	if err == nil {
		t.Fatal("bogus experiment should fail the run")
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Errorf("error %q does not name the failing experiment", err)
	}
	// The successful experiment's output is still delivered.
	if !strings.Contains(buf.String(), "==== fig1 ====") {
		t.Errorf("completed outputs should still be written on failure")
	}
}

func TestRunAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runAll(ctx, fastEntries(t, "fig1"), 1, 0, "text", &bytes.Buffer{})
	if err == nil {
		t.Fatal("cancelled context must surface as an error")
	}
}

func TestRunOneJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := runOne(context.Background(), "fig1", 0, "json", &buf); err != nil {
		t.Fatal(err)
	}
	var o struct {
		ID     string          `json:"id"`
		Tables []*report.Table `json:"tables"`
	}
	if err := json.Unmarshal(buf.Bytes(), &o); err != nil {
		t.Fatalf("decode: %v (output %s)", err, buf.String())
	}
	if o.ID != "fig1" || len(o.Tables) == 0 {
		t.Fatalf("unexpected JSON payload: %s", buf.String())
	}
	// The structured rows must match what the experiment itself reports.
	r, err := run(context.Background(), "fig1", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := experiments.TablesOf(r)
	if !ok {
		t.Fatal("fig1 has no structured output")
	}
	if !reflect.DeepEqual(o.Tables[0].Rows, want[0].Rows) {
		t.Errorf("JSON rows differ from the experiment's tables")
	}
}

func TestRunAllJSONFormat(t *testing.T) {
	entries := fastEntries(t, "fig1", "fig2")
	var buf bytes.Buffer
	if err := runAll(context.Background(), entries, 2, 0, "json", &buf); err != nil {
		t.Fatal(err)
	}
	var outs []struct {
		ID     string          `json:"id"`
		Tables []*report.Table `json:"tables"`
	}
	if err := json.Unmarshal(buf.Bytes(), &outs); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0].ID != "fig1" || outs[1].ID != "fig2" {
		t.Fatalf("unexpected JSON array: %s", buf.String())
	}
	for _, o := range outs {
		if len(o.Tables) == 0 {
			t.Errorf("%s: no tables in JSON output", o.ID)
		}
	}
}

func TestRunAllTimeoutNamesIncompleteFigures(t *testing.T) {
	slow := experiments.Experiment{
		ID:          "figslow",
		Description: "hangs until cancelled",
		Run: func(ctx context.Context, _ float64) (experiments.Renderer, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	entries := append(fastEntries(t, "fig1"), slow)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	err := runAll(ctx, entries, 2, 0, "text", &buf)
	if err == nil {
		t.Fatal("timed-out run must fail")
	}
	if !strings.Contains(err.Error(), "figslow") {
		t.Errorf("error %q does not name the incomplete figure", err)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error %q should say the run timed out, not just %q", err, "context deadline exceeded")
	}
	// The fast figure completed and its output is still delivered.
	if !strings.Contains(buf.String(), "==== fig1 ====") {
		t.Errorf("completed figure's output missing after timeout")
	}
}

func TestRunBenchArgErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runBench(context.Background(), testEnv("text", &buf), []string{"extra"}); err == nil {
		t.Errorf("positional argument should error")
	}
	if err := runBench(context.Background(), testEnv("text", &buf), []string{"-benchtime", "not-a-time"}); err == nil {
		t.Errorf("malformed benchtime should error")
	}
}
