package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/report"
)

// fakeResult is a canned experiment result implementing Renderer.
type fakeResult struct{ tables []*report.Table }

func (r *fakeResult) Render(w io.Writer) error { return nil }

func (r *fakeResult) Tables() []*report.Table { return r.tables }

func oneTable(title string) []*report.Table {
	return []*report.Table{{Title: title, Columns: []string{"v"}, Rows: [][]string{{"42"}}}}
}

// fakeExp builds a registry entry whose computation increments computes
// and then blocks on gate (nil gate = return immediately).
func fakeExp(id string, computes *atomic.Int64, gate chan struct{}) experiments.Experiment {
	return experiments.Experiment{
		ID:          id,
		Description: "test experiment " + id,
		Run: func(ctx context.Context, _ float64) (experiments.Renderer, error) {
			computes.Add(1)
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return &fakeResult{tables: oneTable(id)}, nil
		},
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func decodeResult(t *testing.T, body string) resultResponse {
	t.Helper()
	var rr resultResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return rr
}

func TestListExperiments(t *testing.T) {
	s := New(Config{}, nil) // full registry incl. ablations
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var list []experimentInfo
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range list {
		ids[e.ID] = true
		if e.Description == "" {
			t.Errorf("%s: empty description", e.ID)
		}
	}
	for _, want := range []string{"fig1", "fig14", "ab-grid"} {
		if !ids[want] {
			t.Errorf("listing is missing %s", want)
		}
	}
}

func TestParamValidationAndNotFound(t *testing.T) {
	var computes atomic.Int64
	transient := fakeExp("figt", &computes, nil)
	transient.Transient = true
	s := New(Config{}, []experiments.Experiment{fakeExp("figx", &computes, nil), transient})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		path string
		code int
		frag string
	}{
		{"/v1/experiments/nope", http.StatusNotFound, "unknown experiment"},
		{"/v1/experiments/figx?bogus=1", http.StatusBadRequest, "unknown parameter"},
		{"/v1/experiments/figx?duration=abc", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figx?duration=-3", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figx?duration=5", http.StatusBadRequest, "transient"},
		// A transient experiment takes a run length, but never a negative
		// or non-finite one (ParseFloat accepts NaN and Inf spellings).
		{"/v1/experiments/figt?duration=NaN", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figt?duration=nan", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figt?duration=Inf", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figt?duration=-inf", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figt?duration=-5", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figt?duration=0", http.StatusBadRequest, "invalid duration"},
		// Nor one shorter than the 1 ms control period: no period would
		// run, so it is refused before it takes a compute slot.
		{"/v1/experiments/figt?duration=1e-300", http.StatusBadRequest, "invalid duration"},
		{"/v1/experiments/figt?duration=0.0001", http.StatusBadRequest, "control period"},
		{"/v1/experiments/figt?duration=1e-9", http.StatusBadRequest, "invalid duration"},
		// Nor one longer than Figure 11's 100 s, the paper's longest
		// transient: it would hold a slot until the compute timeout.
		{"/v1/experiments/figt?duration=1e9", http.StatusBadRequest, "longer than"},
		{"/v1/experiments/figt?duration=100.5", http.StatusBadRequest, "invalid duration"},
		{"/v1/tsp?node=7&active=1", http.StatusBadRequest, "invalid node"},
		{"/v1/tsp?node=16&active=0", http.StatusBadRequest, "invalid active"},
		{"/v1/tsp?node=16&active=999", http.StatusBadRequest, "invalid active"},
		{"/v1/tsp?node=16&active=10&junk=1", http.StatusBadRequest, "unknown parameter"},
		{"/v1/tsp", http.StatusBadRequest, "invalid active"},
	}
	for _, tc := range cases {
		code, body, _ := get(t, ts, tc.path)
		if code != tc.code {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.path, code, tc.code, body)
		}
		if !strings.Contains(body, tc.frag) {
			t.Errorf("%s: body %q missing %q", tc.path, body, tc.frag)
		}
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("rejected requests must not compute (computes = %d)", n)
	}
}

func TestFig1JSONRoundTrip(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, hdr := get(t, ts, "/v1/experiments/fig1")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	if got := hdr.Get(cacheHeader); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	rr := decodeResult(t, body)
	if rr.ID != "fig1" || rr.Cache != "miss" {
		t.Errorf("id/cache = %q/%q", rr.ID, rr.Cache)
	}

	// The served tables must round-trip to exactly what the CLI's
	// structured output produces for the same figure.
	e, err := experiments.ByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := experiments.TablesOf(res)
	if !ok {
		t.Fatal("fig1 has no structured output")
	}
	if len(rr.Tables) != len(want) {
		t.Fatalf("tables = %d, want %d", len(rr.Tables), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(rr.Tables[i].Columns, want[i].Columns) {
			t.Errorf("table %d columns differ: %v vs %v", i, rr.Tables[i].Columns, want[i].Columns)
		}
		if !reflect.DeepEqual(rr.Tables[i].Rows, want[i].Rows) {
			t.Errorf("table %d rows differ", i)
		}
	}
}

func TestCoalescingOneComputeForConcurrentRequests(t *testing.T) {
	const waiters = 8
	var computes atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Workers: 2}, []experiments.Experiment{fakeExp("figx", &computes, gate)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	type reply struct {
		code   int
		source string
		body   string
	}
	replies := make(chan reply, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, hdr := get(t, ts, "/v1/experiments/figx")
			replies <- reply{code, hdr.Get(cacheHeader), body}
		}()
	}
	// Hold the gate until every follower has joined the leader's flight,
	// so none of them can race past to a cache hit.
	deadline := time.Now().Add(10 * time.Second)
	for s.cache.Stats().Coalesced < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d coalesced waiters after 10s", s.cache.Stats().Coalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(replies)

	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want exactly 1 for %d concurrent requests", n, waiters)
	}
	sources := map[string]int{}
	for r := range replies {
		if r.code != http.StatusOK {
			t.Errorf("status = %d, body %s", r.code, r.body)
		}
		rr := decodeResult(t, r.body)
		if len(rr.Tables) != 1 || rr.Tables[0].Rows[0][0] != "42" {
			t.Errorf("waiter got wrong payload: %s", r.body)
		}
		sources[r.source]++
	}
	if sources["miss"] != 1 || sources["coalesced"] != waiters-1 {
		t.Errorf("sources = %v, want 1 miss and %d coalesced", sources, waiters-1)
	}
}

func TestCacheHitAndMetrics(t *testing.T) {
	var computes atomic.Int64
	s := New(Config{}, []experiments.Experiment{fakeExp("figx", &computes, nil)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, body, _ := get(t, ts, "/v1/experiments/figx"); code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	code, body, hdr := get(t, ts, "/v1/experiments/figx")
	if code != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("repeat: status %d header %q", code, hdr.Get(cacheHeader))
	}
	if rr := decodeResult(t, body); rr.Cache != "hit" {
		t.Errorf("cache field = %q, want hit", rr.Cache)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1 (second request served from cache)", n)
	}

	code, body, _ = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", snap.Cache.Hits, snap.Cache.Misses)
	}
	if snap.Compute.Count != 1 || snap.Cache.Size != 1 {
		t.Errorf("compute count = %d cache size = %d, want 1/1", snap.Compute.Count, snap.Cache.Size)
	}
	if snap.Requests < 3 {
		t.Errorf("requests = %d, want >= 3", snap.Requests)
	}
	var total int64
	for _, b := range snap.Compute.LatencyMS {
		total += b.Count
	}
	if total != 1 {
		t.Errorf("latency histogram counts %d observations, want 1", total)
	}
}

func TestCacheEvictionAndTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	var ca, cb atomic.Int64
	s := New(Config{CacheSize: 1, CacheTTL: time.Minute, Now: clock},
		[]experiments.Experiment{fakeExp("figa", &ca, nil), fakeExp("figb", &cb, nil)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	mustGet := func(path, wantSource string) {
		t.Helper()
		code, body, hdr := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, code, body)
		}
		if got := hdr.Get(cacheHeader); got != wantSource {
			t.Fatalf("%s: source = %q, want %q", path, got, wantSource)
		}
	}

	mustGet("/v1/experiments/figa", "miss")
	mustGet("/v1/experiments/figa", "hit")
	// figb displaces figa from the one-slot cache.
	mustGet("/v1/experiments/figb", "miss")
	mustGet("/v1/experiments/figa", "miss")
	if ca.Load() != 2 {
		t.Errorf("figa computed %d times, want 2 (evicted by figb)", ca.Load())
	}
	if s.cache.Stats().Evictions == 0 {
		t.Errorf("evictions not counted")
	}

	// TTL: a cached entry dies after CacheTTL on the fake clock.
	mustGet("/v1/experiments/figa", "hit")
	advance(2 * time.Minute)
	mustGet("/v1/experiments/figa", "miss")
	if s.cache.Stats().Expired == 0 {
		t.Errorf("expiry not counted")
	}
}

func TestTSPEndpoint(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/tsp?node=16nm&active=40")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	rr := decodeResult(t, body)
	if rr.ID != "tsp" || len(rr.Tables) != 1 {
		t.Fatalf("unexpected payload: %s", body)
	}
	tbl := rr.Tables[0]
	if !strings.Contains(tbl.Title, "TSP") || !strings.Contains(tbl.Title, "16nm") {
		t.Errorf("title = %q", tbl.Title)
	}
	if rr.Params["cores"] != "100" {
		t.Errorf("default cores = %q, want 100 (16nm platform)", rr.Params["cores"])
	}
	if !strings.Contains(tbl.Title, "Tcrit = 80.0 °C") {
		t.Errorf("title should state the 80 °C TDTM: %q", tbl.Title)
	}
	// Same query again is a cache hit.
	_, _, hdr := get(t, ts, "/v1/tsp?node=16nm&active=40")
	if hdr.Get(cacheHeader) != "hit" {
		t.Errorf("repeat TSP query should hit the cache")
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz: %d %s", code, body)
	}
}

func TestGracefulCloseDrainsAndRejects(t *testing.T) {
	var computes atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Workers: 2}, []experiments.Experiment{
		fakeExp("figslow", &computes, gate),
		fakeExp("figother", &computes, nil),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Start a slow computation, then begin draining while it runs.
	type reply struct {
		code   int
		source string
	}
	inflight := make(chan reply, 1)
	go func() {
		code, _, hdr := get(t, ts, "/v1/experiments/figslow")
		inflight <- reply{code, hdr.Get(cacheHeader)}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for computes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()
	// Give Close a moment to flip the draining flag.
	for {
		if code, body, _ := get(t, ts, "/v1/experiments/figother"); code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "shutting down") {
				t.Errorf("drain error body: %s", body)
			}
			break
		} else if code == http.StatusOK {
			// Raced ahead of the flag; retry until the drain is visible.
			if time.Now().After(deadline) {
				t.Fatal("new work still accepted after Close")
			}
			time.Sleep(time.Millisecond)
			continue
		} else {
			t.Fatalf("unexpected status during drain")
		}
	}

	// The in-flight computation is drained to completion, not dropped.
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := <-inflight
	if r.code != http.StatusOK || r.source != "miss" {
		t.Errorf("in-flight request: code %d source %q, want 200 miss", r.code, r.source)
	}

	// Cached results keep being served after the drain.
	code, _, hdr := get(t, ts, "/v1/experiments/figslow")
	if code != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Errorf("cached result after Close: code %d source %q", code, hdr.Get(cacheHeader))
	}
}

func TestComputeTimeoutMapsTo504(t *testing.T) {
	var computes atomic.Int64
	s := New(Config{ComputeTimeout: 20 * time.Millisecond},
		[]experiments.Experiment{fakeExp("fighang", &computes, make(chan struct{}))})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/experiments/fighang")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", code, body)
	}
	if !strings.Contains(body, "fighang") {
		t.Errorf("timeout error should name the experiment: %s", body)
	}
	if s.metrics.ComputeErrors.Load() != 1 {
		t.Errorf("compute errors = %d, want 1", s.metrics.ComputeErrors.Load())
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	var n atomic.Int64
	exp := experiments.Experiment{
		ID:          "figflaky",
		Description: "fails once",
		Run: func(ctx context.Context, _ float64) (experiments.Renderer, error) {
			if n.Add(1) == 1 {
				return nil, fmt.Errorf("transient failure")
			}
			return &fakeResult{tables: oneTable("figflaky")}, nil
		},
	}
	s := New(Config{}, []experiments.Experiment{exp})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _, _ := get(t, ts, "/v1/experiments/figflaky"); code != http.StatusInternalServerError {
		t.Fatalf("first request: status %d, want 500", code)
	}
	code, _, _ := get(t, ts, "/v1/experiments/figflaky")
	if code != http.StatusOK {
		t.Fatalf("second request: status %d, want 200 (errors must not be cached)", code)
	}
}

// TestCloseDuringCoalescedInflight pins the drain contract when several
// requests are coalesced onto one in-flight computation as Close begins:
// every waiter gets the completed result, the drain waits for the flight,
// and requests arriving after the drain are rejected.
func TestCloseDuringCoalescedInflight(t *testing.T) {
	var computes atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Workers: 2}, []experiments.Experiment{
		fakeExp("figslow", &computes, gate),
		fakeExp("figprobe", &computes, nil),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const waiters = 4
	type reply struct {
		code   int
		source string
	}
	replies := make(chan reply, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			code, _, hdr := get(t, ts, "/v1/experiments/figslow")
			replies <- reply{code, hdr.Get(cacheHeader)}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for computes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()
	// Close must drain, not drop: while the flight is gated it cannot
	// return.
	select {
	case err := <-closed:
		t.Fatalf("Close returned before the in-flight computation finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the flight: every coalesced waiter must complete with 200.
	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// With the drain complete, uncached requests are rejected.
	if code, body, _ := get(t, ts, "/v1/experiments/figprobe"); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d body %s, want 503", code, body)
	}
	sources := map[string]int{}
	for i := 0; i < waiters; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Errorf("waiter got status %d, want 200", r.code)
		}
		sources[r.source]++
	}
	if sources["miss"] != 1 || sources["miss"]+sources["coalesced"] != waiters {
		t.Errorf("cache sources = %v, want 1 miss and %d coalesced", sources, waiters-1)
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1 (coalesced)", got)
	}
}

// TestErrOptionsMapsTo400 pins the error mapping for a valid experiment
// name whose option combination the experiment itself rejects: the
// ErrOptions sentinel must surface as 400, not 500.
func TestErrOptionsMapsTo400(t *testing.T) {
	exp := experiments.Experiment{
		ID:          "figopt",
		Description: "always rejects its options",
		Run: func(ctx context.Context, _ float64) (experiments.Renderer, error) {
			return nil, fmt.Errorf("%w: figopt: 0 instances", experiments.ErrOptions)
		},
	}
	s := New(Config{}, []experiments.Experiment{exp})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/experiments/figopt")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", code, body)
	}
	if !strings.Contains(body, "invalid options") {
		t.Errorf("error body should carry the options error: %s", body)
	}
	if s.metrics.ComputeErrors.Load() != 1 {
		t.Errorf("compute errors = %d, want 1", s.metrics.ComputeErrors.Load())
	}

	// A duration override on a non-transient figure is the same class of
	// client error and must also be 400.
	code, body, _ = get(t, ts, "/v1/experiments/figopt?duration=5")
	if code != http.StatusBadRequest || !strings.Contains(body, "transient") {
		t.Errorf("duration on non-transient: status %d body %s, want 400", code, body)
	}
}

// TestTSPCoresBounded pins the /v1/tsp request-size guard: the influence
// matrix still grows quadratically with cores, so the endpoint must
// reject sizes above experiments.MaxTSPCores as a client error instead of building
// them.
func TestTSPCoresBounded(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := get(t, ts, "/v1/tsp?node=16nm&cores=1000000&active=1")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", code, body)
	}
	if !strings.Contains(body, "4096") {
		t.Errorf("error should state the bound: %s", body)
	}
	if code, _, _ := get(t, ts, "/v1/tsp?node=16nm&cores=0&active=1"); code != http.StatusBadRequest {
		t.Errorf("cores=0: status %d, want 400", code)
	}
}

// TestPlatformCacheBoundedByDefault drives a server built by New, with
// no call to experiments.SetPlatformCacheCap, through more never-seen
// (node, cores) platforms than the default bound: the shared platform
// cache must stay within it.
func TestPlatformCacheBoundedByDefault(t *testing.T) {
	s := New(Config{}, nil)
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Small near-square core counts on every node: 40 distinct keys.
	bound := experiments.DefaultPlatformCacheCap
	seen := 0
	for _, node := range []string{"22nm", "16nm", "11nm", "8nm"} {
		for _, cores := range []int{1, 2, 4, 6, 9, 12, 16, 20, 25, 30} {
			path := fmt.Sprintf("/v1/tsp?node=%s&cores=%d&active=1", node, cores)
			if code, body, _ := get(t, ts, path); code != http.StatusOK {
				t.Fatalf("%s: status %d, body %s", path, code, body)
			}
			seen++
			if n := experiments.PlatformCacheLen(); n > bound {
				t.Fatalf("after %d platforms the cache holds %d, bound %d", seen, n, bound)
			}
		}
	}
	if seen <= bound {
		t.Fatalf("only %d platforms requested, want more than the bound %d", seen, bound)
	}
}
