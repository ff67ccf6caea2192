package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darksim/internal/scenario"
)

func TestRunPolicyList(t *testing.T) {
	var buf bytes.Buffer
	if err := runPolicy(context.Background(), testEnv("text", &buf), []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"constant", "boost", "dsrem", "boost-unsafe", "tunable"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("policy listing lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestRunPolicyHeadToHead(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-pack", scenario.PackSymmetric, "-duration", "0.02",
		"-policies", "constant,boost,dsrem"}
	if err := runPolicy(context.Background(), testEnv("text", &buf), args); err != nil {
		t.Fatalf("safe trio failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "Policy frontier") || !strings.Contains(out, "pass") {
		t.Fatalf("missing frontier verdicts:\n%s", out)
	}

	// The negative control must flip the exit status and name the step.
	buf.Reset()
	args = []string{"-pack", scenario.PackSymmetric, "-duration", "0.02",
		"-policies", "constant,boost-unsafe"}
	err := runPolicy(context.Background(), testEnv("text", &buf), args)
	if err == nil {
		t.Fatalf("boost-unsafe run exited clean:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "never-exceed-tdtm") {
		t.Fatalf("violation table missing:\n%s", buf.String())
	}
}

func TestRunPolicySpecFileAndJSON(t *testing.T) {
	spec := `{
		"pack": "` + scenario.PackSymmetric + `",
		"duration_s": 0.02,
		"policies": [{"name": "constant"}, {"name": "boost"}],
		"tune": "boost", "budget": 2
	}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runPolicy(context.Background(), testEnv("json", &buf), []string{"-spec", path}); err != nil {
		t.Fatalf("spec run failed: %v\n%s", err, buf.String())
	}
	var o output
	if err := json.Unmarshal(buf.Bytes(), &o); err != nil {
		t.Fatalf("json output does not decode: %v", err)
	}
	if len(o.Tables) < 2 {
		t.Fatalf("got %d tables, want frontier + tuning", len(o.Tables))
	}
	if !strings.Contains(o.Tables[1].Title, "Tuning boost") {
		t.Fatalf("second table is %q, want the tuning record", o.Tables[1].Title)
	}
}

func TestRunPolicyArgErrors(t *testing.T) {
	cases := [][]string{
		{},                            // nothing selected
		{"-spec", "x", "-pack", "y"},  // mutually exclusive
		{"-pack", "no_such_scenario"}, // unknown pack
		{"-pack", scenario.PackSymmetric, "-policies", "overclock"}, // unknown policy
		{"-pack", scenario.PackSymmetric, "stray"},                  // positional args
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := runPolicy(context.Background(), testEnv("text", &buf), args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
