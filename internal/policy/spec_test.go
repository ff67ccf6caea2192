package policy

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"darksim/internal/scenario"
)

func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"pack": "dark_silicon_symmetric", "tdp": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"pack": "x"} garbage`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	s, err := Parse([]byte(`{"pack": "dark_silicon_symmetric", "tune": "boost"}`))
	if err != nil || s.Pack != scenario.PackSymmetric || s.Tune != "boost" {
		t.Fatalf("parse: %+v %v", s, err)
	}
}

func TestNormalizeValidation(t *testing.T) {
	inline := scenario.SymmetricSpec(16, "swaptions", 220)
	bad := []struct {
		name string
		s    Spec
	}{
		{"neither workload", Spec{}},
		{"both workloads", Spec{Pack: scenario.PackSymmetric, Scenario: &inline}},
		{"unknown pack", Spec{Pack: "nope"}},
		{"unknown policy", Spec{Pack: scenario.PackSymmetric, Policies: []PolicyConfig{{Name: "nope"}}}},
		{"bad param", Spec{Pack: scenario.PackSymmetric, Policies: []PolicyConfig{{Name: "boost", Params: map[string]float64{"nope": 1}}}}},
		{"param on untunable", Spec{Pack: scenario.PackSymmetric, Policies: []PolicyConfig{{Name: "constant", Params: map[string]float64{"x": 1}}}}},
		{"duplicate policy", Spec{Pack: scenario.PackSymmetric, Policies: []PolicyConfig{{Name: "boost"}, {Name: "boost"}}}},
		{"tune outside policies", Spec{Pack: scenario.PackSymmetric, Tune: "darkgates"}},
		{"tune untunable", Spec{Pack: scenario.PackSymmetric, Policies: []PolicyConfig{{Name: "constant"}}, Tune: "constant"}},
		{"negative duration", Spec{Pack: scenario.PackSymmetric, DurationS: -1}},
		{"duration below the control period", Spec{Pack: scenario.PackSymmetric, DurationS: 0.0001}},
		{"denormal duration", Spec{Pack: scenario.PackSymmetric, DurationS: 1e-300}},
		{"huge duration", Spec{Pack: scenario.PackSymmetric, DurationS: 120}},
		{"huge budget", Spec{Pack: scenario.PackSymmetric, Policies: []PolicyConfig{{Name: "boost"}}, Tune: "boost", Budget: 1000}},
	}
	for _, tc := range bad {
		if _, err := Normalize(tc.s); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}

	ns, err := Normalize(Spec{Pack: scenario.PackSymmetric})
	if err != nil {
		t.Fatal(err)
	}
	if ns.Pack != "" || ns.Scenario == nil {
		t.Fatalf("pack not resolved: %+v", ns)
	}
	if ns.DurationS != 0.5 || len(ns.Policies) != 3 {
		t.Fatalf("defaults not applied: %+v", ns)
	}
	if ns.Seed != 0 || ns.Budget != 0 {
		t.Fatalf("tuner knobs leak into a tune-less spec: %+v", ns)
	}
	nt, err := Normalize(Spec{Pack: scenario.PackSymmetric, Policies: []PolicyConfig{{Name: "boost"}}, Tune: "boost"})
	if err != nil {
		t.Fatal(err)
	}
	if nt.Seed != 1 || nt.Budget != 12 {
		t.Fatalf("tuner defaults not applied: %+v", nt)
	}
}

// TestHashIsContent: the hash keys on meaning — display name and
// pack-vs-inline spelling of the same workload hash identically, and a
// different workload hashes differently.
func TestHashIsContent(t *testing.T) {
	byPack, err := Hash(Spec{Name: "a", Pack: scenario.PackSymmetric})
	if err != nil {
		t.Fatal(err)
	}
	inline, err := scenario.PackByName(scenario.PackSymmetric)
	if err != nil {
		t.Fatal(err)
	}
	inline.Name = "renamed"
	byInline, err := Hash(Spec{Name: "b", Scenario: &inline})
	if err != nil {
		t.Fatal(err)
	}
	if byPack != byInline {
		t.Fatalf("pack and inline forms hash differently: %s %s", byPack, byInline)
	}
	other, err := Hash(Spec{Pack: scenario.PackAsymmetric})
	if err != nil {
		t.Fatal(err)
	}
	if other == byPack {
		t.Fatal("different workloads share a hash")
	}
}

func TestExecute(t *testing.T) {
	res, err := Execute(context.Background(), Spec{
		Pack:      scenario.PackSymmetric,
		Policies:  []PolicyConfig{{Name: "constant"}, {Name: "boost"}},
		DurationS: 0.02,
		Tune:      "boost",
		Budget:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("%d outcomes, want 2 policies + tuned", len(res.Outcomes))
	}
	if res.Tuning == nil || res.Tuning.Policy != "boost" {
		t.Fatalf("tuning record missing: %+v", res.Tuning)
	}
	tuned := res.Outcomes[2]
	if !strings.Contains(tuned.Policy, "(tuned)") || !tuned.Passed() {
		t.Fatalf("tuned outcome: %+v", tuned)
	}
	if res.Hash == "" || res.Violated() {
		t.Fatalf("hash=%q violated=%v", res.Hash, res.Violated())
	}
	var buf bytes.Buffer
	for _, tb := range res.Tables() {
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Policy frontier") || !strings.Contains(out, "Tuning boost") {
		t.Fatalf("tables incomplete:\n%s", out)
	}
}

// TestExecuteDeterministic: two executions of one spec render identical
// tables — what the service cache relies on to be transparent.
func TestExecuteDeterministic(t *testing.T) {
	spec := Spec{
		Pack:      scenario.PackSymmetric,
		Policies:  []PolicyConfig{{Name: "boost"}},
		DurationS: 0.02,
		Tune:      "boost",
		Budget:    3,
		Seed:      7,
	}
	var renders []string
	for i := 0; i < 2; i++ {
		res, err := Execute(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, tb := range res.Tables() {
			if err := tb.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		renders = append(renders, buf.String())
	}
	if renders[0] != renders[1] {
		t.Fatalf("same spec rendered differently:\n%s\n---\n%s", renders[0], renders[1])
	}
}

func TestExecuteUnsafeCaught(t *testing.T) {
	res, err := Execute(context.Background(), Spec{
		Pack:      scenario.PackSymmetric,
		Policies:  []PolicyConfig{{Name: "boost-unsafe"}},
		DurationS: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated() {
		t.Fatal("boost-unsafe not flagged through Execute")
	}
	var buf bytes.Buffer
	for _, tb := range res.Tables() {
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "Assertion violations") {
		t.Fatalf("violation table missing:\n%s", buf.String())
	}
}
