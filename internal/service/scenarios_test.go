package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"darksim/internal/scenario"
)

func post(t *testing.T, ts *httptest.Server, path, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestScenarioListAndByName(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/scenarios")
	if code != http.StatusOK {
		t.Fatalf("list status = %d, body %s", code, body)
	}
	var infos []scenarioInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
		if len(in.Hash) != 64 {
			t.Errorf("%s: hash %q is not sha256 hex", in.Name, in.Hash)
		}
	}
	for _, want := range []string{scenario.PackSymmetric, scenario.PackAsymmetric, scenario.PackMultiInstancing} {
		if !names[want] {
			t.Errorf("pack listing is missing %q", want)
		}
	}

	if code, body, _ := get(t, ts, "/v1/scenarios/no_such"); code != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d body %s", code, body)
	}

	code, body, _ = get(t, ts, "/v1/scenarios/"+scenario.PackMultiInstancing)
	if code != http.StatusOK {
		t.Fatalf("by-name status = %d, body %s", code, body)
	}
	rr := decodeResult(t, body)
	if len(rr.Tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(rr.Tables))
	}
}

// TestScenarioPostDedupesByContentHash is the acceptance check: two
// submissions of the same chip — spelled differently (reordered
// collections, renamed, defaults explicit) — must key to the same cache
// entry, so the second is a hit and only one compute runs.
func TestScenarioPostDedupesByContentHash(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	specA := `{
		"name": "my chip",
		"node_nm": 16, "tdp_w": 180,
		"core_types": [
			{"name": "big", "count": 2, "area_scale": 4, "power_scale": 2.5, "perf_scale": 1.8},
			{"name": "little", "count": 30}
		],
		"apps": [
			{"app": "x264", "core_type": "big", "instances": 2, "threads": 1},
			{"app": "swaptions", "core_type": "little", "instances": 2}
		]
	}`
	// Same chip: different name, reordered core types and apps, defaults
	// spelled out explicitly.
	specB := `{
		"name": "same chip respelled",
		"node_nm": 16, "tdp_w": 180, "tdtm_c": 80, "floorplan": "shelves",
		"core_types": [
			{"name": "little", "count": 30, "area_scale": 1, "power_scale": 1, "perf_scale": 1},
			{"name": "big", "count": 2, "area_scale": 4, "power_scale": 2.5, "perf_scale": 1.8}
		],
		"apps": [
			{"app": "swaptions", "core_type": "little", "instances": 2, "threads": 8},
			{"app": "x264", "core_type": "big", "instances": 2, "threads": 1}
		]
	}`

	code, body, hdr := post(t, ts, "/v1/scenarios", specA)
	if code != http.StatusOK {
		t.Fatalf("first POST: status %d body %s", code, body)
	}
	if src := hdr.Get(cacheHeader); src != "miss" {
		t.Fatalf("first POST cache = %q, want miss", src)
	}

	code, body, hdr = post(t, ts, "/v1/scenarios", specB)
	if code != http.StatusOK {
		t.Fatalf("second POST: status %d body %s", code, body)
	}
	if src := hdr.Get(cacheHeader); src != "hit" {
		t.Fatalf("second POST cache = %q, want hit (content-hash dedupe)", src)
	}
	if n := s.metrics.Computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want exactly 1 for two spellings of one chip", n)
	}
	rr := decodeResult(t, body)
	if rr.Result.Params["hash"] == "" {
		t.Fatal("result params carry no spec hash")
	}
}

func TestScenarioPostValidation(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := map[string]string{
		"malformed":     `{not json`,
		"unknown field": `{"node_nm":16,"tdp":220}`,
		"zero TDP":      `{"node_nm":16,"tdp_w":0,"core_types":[{"name":"c","count":4}],"apps":[{"app":"x264","instances":1}]}`,
		"unknown app":   `{"node_nm":16,"tdp_w":100,"core_types":[{"name":"c","count":4}],"apps":[{"app":"crysis","instances":1}]}`,
	}
	for name, body := range cases {
		if code, rbody, _ := post(t, ts, "/v1/scenarios", body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d body %s, want 400", name, code, rbody)
		}
	}
	if n := s.metrics.Computes.Load(); n != 0 {
		t.Errorf("invalid specs consumed %d compute slots, want 0", n)
	}
}
