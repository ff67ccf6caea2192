package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darksim/internal/experiments"
	"darksim/internal/floorplan"
	"darksim/internal/hotspot"
	"darksim/internal/report"
	"darksim/internal/service"
	"darksim/internal/thermal"
)

// runCmd runs the named subcommand in-process and returns its stdout.
func runCmd(t *testing.T, format, name string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := lookup(name).run(context.Background(), testEnv(format, &out), args)
	return out.String(), err
}

func TestTSPTable(t *testing.T) {
	out, err := runCmd(t, "text", "tsp", "-node", "16", "-cores", "100", "-max", "10", "-step", "5")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "Worst-case TSP, 16nm, 100 cores, Tcrit = 80.0 °C" {
		t.Errorf("title = %q", lines[0])
	}
	// Title, header, rule, then the rows for 5 and 10 active cores.
	if len(lines) != 5 || !strings.HasPrefix(lines[3], "5 ") || !strings.HasPrefix(lines[4], "10 ") {
		t.Errorf("unexpected table:\n%s", out)
	}
}

func TestTSPClampsAndDefaults(t *testing.T) {
	// max > cores clamps; step <= 0 resets to 1.
	out, err := runCmd(t, "text", "tsp", "-node", "16", "-cores", "16", "-max", "999", "-step", "-3")
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(strings.TrimSpace(out), "\n") - 2; rows != 16 {
		t.Errorf("%d rows, want 16:\n%s", rows, out)
	}
}

func TestTSPErrors(t *testing.T) {
	if _, err := runCmd(t, "text", "tsp", "-node", "14"); err == nil {
		t.Errorf("unknown node should error")
	}
	if _, err := runCmd(t, "text", "tsp", "-tcrit", "30"); err == nil {
		t.Errorf("threshold below ambient should error")
	}
	// The core-count bound is the one /v1/tsp applies.
	for _, cores := range []string{"0", "5000"} {
		if _, err := runCmd(t, "text", "tsp", "-cores", cores); !errors.Is(err, experiments.ErrOptions) {
			t.Errorf("-cores %s: err = %v, want ErrOptions", cores, err)
		}
	}
}

// TestTSPMatchesService pins that the CLI and the daemon serve one TSP
// table: the 40-core row of `darksim -format json tsp` is byte-equal to
// the row GET /v1/tsp answers for 40 active cores.
func TestTSPMatchesService(t *testing.T) {
	out, err := runCmd(t, "json", "tsp", "-node", "16", "-cores", "100")
	if err != nil {
		t.Fatal(err)
	}
	var cli output
	if err := json.Unmarshal([]byte(out), &cli); err != nil {
		t.Fatal(err)
	}

	s := service.New(service.Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/tsp?node=16&active=40")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served struct {
		Tables []*report.Table `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if len(cli.Tables) != 1 || len(cli.Tables[0].Rows) != 100 || len(served.Tables) != 1 || len(served.Tables[0].Rows) != 1 {
		t.Fatalf("unexpected shapes: cli %s, served %+v", out, served.Tables)
	}
	if cli.Tables[0].Title != served.Tables[0].Title {
		t.Errorf("titles differ: %q vs %q", cli.Tables[0].Title, served.Tables[0].Title)
	}
	want, _ := json.Marshal(cli.Tables[0].Rows[39])
	got, _ := json.Marshal(served.Tables[0].Rows[0])
	if !bytes.Equal(got, want) {
		t.Errorf("/v1/tsp row %s, darksim tsp row %s", got, want)
	}
}

func TestFloorplanFromNode(t *testing.T) {
	fp, err := buildFloorplan(16, 100, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 100 {
		t.Errorf("blocks = %d", fp.NumBlocks())
	}
	// 16 nm core area is 5.1 mm².
	if a := fp.Blocks[0].Area() * 1e6; a < 5.0 || a > 5.2 {
		t.Errorf("core area = %.2f mm²", a)
	}
}

func TestFloorplanExplicitGrid(t *testing.T) {
	fp, err := buildFloorplan(0, 0, 6, 4, 2.7)
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 24 || fp.Cols != 6 || fp.Rows != 4 {
		t.Errorf("grid = %dx%d with %d blocks", fp.Cols, fp.Rows, fp.NumBlocks())
	}
}

func TestFloorplanErrors(t *testing.T) {
	if _, err := buildFloorplan(0, 0, 0, 0, 0); err == nil {
		t.Errorf("no node and no grid should error")
	}
	if _, err := buildFloorplan(0, 0, 6, 4, 0); err == nil {
		t.Errorf("explicit grid without area should error")
	}
	if _, err := buildFloorplan(14, 100, 0, 0, 0); err == nil {
		t.Errorf("unknown node should error")
	}
	if _, err := buildFloorplan(16, 97, 0, 0, 0); err == nil {
		t.Errorf("prime core count should error")
	}
	if out, err := runCmd(t, "text", "floorplan", "-cols", "2", "-rows", "2", "-area", "NaN"); !errors.Is(err, floorplan.ErrInvalid) || out != "" {
		t.Errorf("NaN area: err = %v, output %q; want ErrInvalid and no floorplan", err, out)
	}
}

// writeInputs materializes a 4x4 floorplan, a config and a 3-step ptrace
// in a temp dir and returns their paths.
func writeInputs(t *testing.T) (flp, cfg, ptrace string) {
	t.Helper()
	dir := t.TempDir()
	fp, err := floorplan.NewGrid(4, 4, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, fill func(io.Writer) error) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := fill(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tr := &hotspot.PowerTrace{}
	for _, b := range fp.Blocks {
		tr.Units = append(tr.Units, b.Name)
	}
	for step := 0; step < 3; step++ {
		row := make([]float64, len(tr.Units))
		for i := range row {
			row[i] = 2.0
		}
		tr.Steps = append(tr.Steps, row)
	}
	flp = write("chip.flp", fp.WriteFLP)
	cfg = write("hotspot.config", func(w io.Writer) error {
		return hotspot.WriteConfig(w, thermal.DefaultConfig(fp.DieW, fp.DieH, 4, 4))
	})
	ptrace = write("run.ptrace", func(w io.Writer) error { return hotspot.WritePTrace(w, tr) })
	return flp, cfg, ptrace
}

func TestThermalSteadyState(t *testing.T) {
	flp, cfg, ptrace := writeInputs(t)
	out, err := runCmd(t, "text", "thermal", "-flp", flp, "-config", cfg, "-ptrace", ptrace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "core_0_0\t") {
		t.Errorf("missing block output:\n%s", out)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 16 {
		t.Errorf("expected 16 block lines, got %d", len(lines))
	}
}

func TestThermalTransient(t *testing.T) {
	flp, _, ptrace := writeInputs(t)
	out, err := runCmd(t, "text", "thermal", "-flp", flp, "-ptrace", ptrace, "-transient", "-dt", "1e-2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "t=0.010000") || !strings.Contains(out, "# final temperatures") {
		t.Errorf("transient output wrong:\n%s", out)
	}
}

func TestThermalErrors(t *testing.T) {
	flp, cfg, ptrace := writeInputs(t)
	// A ptrace whose units do not match the floorplan.
	badTrace := filepath.Join(t.TempDir(), "bad.ptrace")
	if err := os.WriteFile(badTrace, []byte("alien\n1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"missing floorplan", []string{"-flp", "nope.flp", "-config", cfg, "-ptrace", ptrace}},
		{"missing config", []string{"-flp", flp, "-config", "nope.config", "-ptrace", ptrace}},
		{"missing ptrace", []string{"-flp", flp, "-config", cfg, "-ptrace", "nope.ptrace"}},
		{"unit mismatch", []string{"-flp", flp, "-config", cfg, "-ptrace", badTrace}},
		{"no ptrace flag", []string{"-flp", flp}},
		{"infinite step", []string{"-flp", flp, "-ptrace", ptrace, "-transient", "-dt", "Inf"}},
		{"NaN step", []string{"-flp", flp, "-ptrace", ptrace, "-transient", "-dt", "NaN"}},
	}
	for _, c := range cases {
		if out, err := runCmd(t, "text", "thermal", c.args...); err == nil || strings.Contains(out, "t=") {
			t.Errorf("%s: err = %v, output %q; want an error before any step", c.name, err, out)
		}
	}
	if _, err := runCmd(t, "text", "thermal", "-flp", flp, "-ptrace", ptrace, "-transient", "-dt", "Inf"); !errors.Is(err, thermal.ErrConfig) {
		t.Errorf("infinite step: err = %v, want thermal.ErrConfig", err)
	}
}

// TestExecuteExitStatus drives the whole dispatch, global flags included,
// and pins the process exit status of good, bad and misused invocations.
func TestExecuteExitStatus(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"list"}, 0},
		{[]string{"-format", "json", "tsp", "-cores", "4"}, 0},
		{[]string{"tsp", "-h"}, 0},
		{[]string{"tsp", "-cores", "0"}, 1},
		{[]string{"floorplan", "-cols", "2", "-rows", "2", "-area", "NaN"}, 1},
		{[]string{"fig99"}, 1},
		{nil, 2},
		{[]string{"list", "extra"}, 2},
		{[]string{"-format", "xml", "list"}, 2},
		{[]string{"thermal"}, 2},
		{[]string{"tsp", "-bogus"}, 2},
		{[]string{"floorplan", "-cores", "x"}, 2},
		{[]string{"thermal", "-flp", "c.flp", "-ptrace", "run.ptrace", "extra"}, 2},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if code := execute(context.Background(), c.args, &out, &errOut); code != c.code {
			t.Errorf("darksim %v: exit %d, want %d (stderr %q)", c.args, code, c.code, errOut.String())
		}
	}
}
