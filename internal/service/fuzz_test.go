package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"darksim/internal/experiments"
	"darksim/internal/report"
)

// FuzzServiceParams throws arbitrary experiment names and query strings
// at the HTTP mux: every request must produce a well-formed HTTP status,
// never a panic. Experiments are zero-cost stubs so the fuzzer exercises
// routing, parameter validation and error mapping, not figure math.
func FuzzServiceParams(f *testing.F) {
	stub := func(id string) experiments.Experiment {
		return experiments.Experiment{
			ID:          id,
			Description: "fuzz stub",
			Run: func(ctx context.Context, _ float64) (experiments.Renderer, error) {
				return &fakeResult{tables: []*report.Table{{
					Title: id, Columns: []string{"v"}, Rows: [][]string{{"1"}},
				}}}, nil
			},
		}
	}
	srv := New(Config{Workers: 1}, []experiments.Experiment{stub("fig1"), stub("fig11")})
	f.Cleanup(func() { _ = srv.Close(context.Background()) })

	f.Add("/v1/experiments/fig1", "")
	f.Add("/v1/experiments/fig11", "duration=2")
	f.Add("/v1/experiments/fig11", "duration=NaN")
	f.Add("/v1/experiments/../../etc/passwd", "")
	f.Add("/v1/tsp", "node=16nm&cores=100&active=40")
	f.Add("/v1/tsp", "node=16nm&cores=999999999&active=1")
	f.Add("/v1/tsp", "node=%zz&active=-1")
	f.Add("/healthz", "")
	f.Add("/metrics", "")
	f.Add("/v1/experiments", "bogus=1")
	f.Fuzz(func(t *testing.T, path, rawQuery string) {
		// Build the URL directly: httptest.NewRequest panics on targets
		// the HTTP client would never emit, but a reverse proxy can hand
		// the mux nearly anything, so the handler must stay panic-free.
		req := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: path, RawQuery: rawQuery},
			Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Host:       "fuzz.local",
			RemoteAddr: "192.0.2.1:1234",
		}
		req = req.WithContext(context.Background())
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("GET %q?%q: implausible status %d", path, rawQuery, rec.Code)
		}
	})
}
