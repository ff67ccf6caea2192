package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"darksim/internal/jobs"
	"darksim/internal/scenario"
)

// TestPolicyPostDedupesByContentHash mirrors the scenario acceptance
// check: two spellings of the same sandbox evaluation (renamed, policies
// defaulted vs. spelled out) must key to one cache entry and one run.
func TestPolicyPostDedupesByContentHash(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	specA := fmt.Sprintf(`{
		"name": "race A",
		"pack": %q,
		"duration_s": 0.02
	}`, scenario.PackSymmetric)
	// Same evaluation: renamed, the default policy trio spelled out.
	specB := fmt.Sprintf(`{
		"name": "race B respelled",
		"pack": %q,
		"duration_s": 0.02,
		"policies": [{"name": "constant"}, {"name": "boost"}, {"name": "dsrem"}]
	}`, scenario.PackSymmetric)

	code, body, hdr := post(t, ts, "/v1/policies", specA)
	if code != http.StatusOK {
		t.Fatalf("first POST: status %d body %s", code, body)
	}
	if src := hdr.Get(cacheHeader); src != "miss" {
		t.Fatalf("first POST cache = %q, want miss", src)
	}
	rr := decodeResult(t, body)
	if len(rr.Tables) == 0 || !strings.Contains(rr.Tables[0].Title, "Policy frontier") {
		t.Fatalf("response lacks a frontier table: %s", body)
	}

	code, body, hdr = post(t, ts, "/v1/policies", specB)
	if code != http.StatusOK {
		t.Fatalf("second POST: status %d body %s", code, body)
	}
	if src := hdr.Get(cacheHeader); src != "hit" {
		t.Fatalf("second POST cache = %q, want hit (content-hash dedupe)", src)
	}
	if n := s.metrics.Computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want exactly 1 for two spellings of one evaluation", n)
	}
	if decodeResult(t, body).Result.Params["hash"] == "" {
		t.Fatal("result params carry no spec hash")
	}
}

func TestPolicyPostValidation(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := map[string]string{
		"malformed":      `{not json`,
		"unknown field":  `{"pack": "x", "policy": "boost"}`,
		"no workload":    `{"policies": [{"name": "boost"}]}`,
		"both workloads": fmt.Sprintf(`{"pack": %q, "scenario": {"node_nm": 16}}`, scenario.PackSymmetric),
		"unknown policy": fmt.Sprintf(`{"pack": %q, "policies": [{"name": "overclock"}]}`, scenario.PackSymmetric),
		"untunable tune": fmt.Sprintf(`{"pack": %q, "policies": [{"name": "constant"}], "tune": "constant"}`, scenario.PackSymmetric),
	}
	for name, body := range cases {
		if code, rbody, _ := post(t, ts, "/v1/policies", body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d body %s, want 400", name, code, rbody)
		}
	}
	if n := s.metrics.Computes.Load(); n != 0 {
		t.Errorf("invalid specs consumed %d compute slots, want 0", n)
	}
}

// TestPolicyRunAsync submits a tuning evaluation through POST /v1/runs:
// the run must succeed, stream frontier fragments as events, land in the
// ?kind=policy listing, and write through to the synchronous cache.
func TestPolicyRunAsync(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := fmt.Sprintf(`{
		"pack": %q,
		"duration_s": 0.02,
		"policies": [{"name": "constant"}, {"name": "boost"}],
		"tune": "boost", "budget": 2
	}`, scenario.PackSymmetric)

	code, body, _ := postRun(t, ts, fmt.Sprintf(`{"policy": %s}`, spec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", code, body)
	}
	rr := decodeRun(t, body)
	if rr.Kind != "policy" {
		t.Fatalf("run kind = %q, want policy", rr.Kind)
	}
	run := waitRunState(t, ts, rr.ID, jobs.StateDone)
	if len(run.Tables) == 0 || !strings.Contains(run.Tables[0].Title, "Policy frontier") {
		t.Fatalf("terminal run lacks the frontier table: %+v", run.Tables)
	}
	found := false
	for _, tb := range run.Tables {
		if strings.Contains(tb.Title, "Tuning boost") {
			found = true
		}
	}
	if !found {
		t.Fatal("terminal run lacks the tuning table")
	}
	events := readEvents(t, ts, rr.ID, "")
	if !strings.Contains(events, "policy constant") || !strings.Contains(events, "policy boost") {
		t.Fatalf("event stream lacks per-policy frontier fragments:\n%s", events)
	}

	// The kind filter isolates policy runs; an unknown parameter still 400s.
	code, body, _ = get(t, ts, "/v1/runs?kind=policy")
	if code != http.StatusOK {
		t.Fatalf("kind listing: %d %s", code, body)
	}
	var runs []jobs.Run
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Kind != "policy" {
		t.Fatalf("kind=policy listing = %+v", runs)
	}
	if code, body, _ = get(t, ts, "/v1/runs?kind=experiment"); code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("kind=experiment listing = %d %s, want empty", code, body)
	}

	// The async result wrote through to the synchronous cache, stamped
	// as the synchronous request stamps its own.
	code, body, hdr := post(t, ts, "/v1/policies", spec)
	if code != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("synchronous follow-up: status %d cache %q, want 200 hit", code, hdr.Get(cacheHeader))
	}
	if res := decodeResult(t, body); res.ID != "policy" || res.Params["hash"] == "" {
		t.Errorf("written-through result id %q params %v, want id policy with the spec hash", res.ID, res.Params)
	}
}

func TestPolicyRunRejectsDuration(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := fmt.Sprintf(`{"policy": {"pack": %q}, "duration": 1}`, scenario.PackSymmetric)
	if code, rbody, _ := postRun(t, ts, body); code != http.StatusBadRequest {
		t.Fatalf("duration on a policy run: status %d body %s, want 400", code, rbody)
	}
	if code, rbody, _ := postRun(t, ts, `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty run request: status %d body %s, want 400", code, rbody)
	}

	// A spec shorter than the 1 ms control period is refused by spec
	// validation, before it queues a run or takes a compute slot.
	for _, d := range []string{"0.0001", "1e-300"} {
		spec := fmt.Sprintf(`{"pack": %q, "duration_s": %s}`, scenario.PackSymmetric, d)
		if code, rbody, _ := postRun(t, ts, fmt.Sprintf(`{"policy": %s}`, spec)); code != http.StatusBadRequest ||
			!strings.Contains(rbody, "duration") {
			t.Fatalf("policy run with duration_s %s: status %d body %s, want 400", d, code, rbody)
		}
		if code, rbody, _ := post(t, ts, "/v1/policies", spec); code != http.StatusBadRequest {
			t.Fatalf("policy POST with duration_s %s: status %d body %s, want 400", d, code, rbody)
		}
	}
	if code, rbody, _ := get(t, ts, "/v1/runs"); code != http.StatusOK || strings.TrimSpace(rbody) != "[]" {
		t.Fatalf("run listing after refused submissions = %d %s, want empty", code, rbody)
	}
	if n := s.metrics.Computes.Load(); n != 0 {
		t.Fatalf("computes = %d after refused submissions, want 0", n)
	}
}
