package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/jobs"
	"darksim/internal/progress"
	"darksim/internal/report"
)

// progressExp builds a registry entry that emits `points` one-row
// fragments through the context progress sink (the async path's hook)
// before returning its final tables. A non-nil gate is received from
// once per point, so tests control the pace.
func progressExp(id string, points int, computes *atomic.Int64, gate chan struct{}) experiments.Experiment {
	return experiments.Experiment{
		ID:          id,
		Description: "async test experiment " + id,
		Run: func(ctx context.Context, _ float64) (experiments.Renderer, error) {
			computes.Add(1)
			for i := 1; i <= points; i++ {
				if gate != nil {
					select {
					case <-gate:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				if progress.Enabled(ctx) {
					frag := &report.Table{
						Title:   fmt.Sprintf("%s point %d", id, i),
						Columns: []string{"v"},
						Rows:    [][]string{{strconv.Itoa(i)}},
					}
					progress.Emit(ctx, progress.Point{Table: frag, Done: i, Total: points})
				}
			}
			return &fakeResult{tables: oneTable(id)}, nil
		},
	}
}

func postRun(t *testing.T, ts *httptest.Server, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func decodeRun(t *testing.T, body string) runResponse {
	t.Helper()
	var rr runResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatalf("decode run %q: %v", body, err)
	}
	return rr
}

// waitRunState polls GET /v1/runs/{id} until the run reaches st.
func waitRunState(t *testing.T, ts *httptest.Server, id string, st jobs.State) jobs.Run {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body, _ := get(t, ts, "/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET run %s: %d %s", id, code, body)
		}
		var r jobs.Run
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		if r.State == st {
			return r
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, st)
	return jobs.Run{}
}

// readEvents consumes one SSE connection to EOF (the stream ends after
// the terminal event) and returns the raw bytes.
func readEvents(t *testing.T, ts *httptest.Server, id, lastEventID string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET events: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// closeWithin registers a bounded Close so a test that fails while a
// gated job is still blocked cannot deadlock the cleanup: the drain
// deadline expires and the manager interrupts the stragglers.
func closeWithin(t *testing.T, s *Server) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
}

// frames splits an SSE byte stream into its event frames.
func frames(stream string) []string {
	var out []string
	for _, f := range strings.Split(stream, "\n\n") {
		if f != "" {
			out = append(out, f+"\n\n")
		}
	}
	return out
}

func TestRunLifecycleOverHTTP(t *testing.T) {
	var computes atomic.Int64
	s := New(Config{}, []experiments.Experiment{progressExp("figp", 3, &computes, nil)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := postRun(t, ts, `{"experiment":"figp"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d %s, want 202", code, body)
	}
	rr := decodeRun(t, body)
	if rr.Deduped || rr.ID == "" {
		t.Fatalf("submission = %+v, want a fresh run id", rr)
	}
	final := waitRunState(t, ts, rr.ID, jobs.StateDone)
	if final.Done != 3 || final.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3", final.Done, final.Total)
	}
	if len(final.Tables) != 1 || final.Tables[0].Title != "figp" {
		t.Errorf("terminal tables = %+v", final.Tables)
	}
	if computes.Load() != 1 {
		t.Errorf("computes = %d, want 1", computes.Load())
	}

	// The run populated the synchronous cache: a sync GET for the same
	// key is a hit, not a second computation.
	codeSync, bodySync, hdr := get(t, ts, "/v1/experiments/figp")
	if codeSync != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("sync GET after run = %d, cache %q, want hit", codeSync, hdr.Get(cacheHeader))
	}
	sync := decodeResult(t, bodySync)
	a, _ := json.Marshal(sync.Tables)
	b, _ := json.Marshal(final.Tables)
	if string(a) != string(b) {
		t.Errorf("sync tables %s != run tables %s", a, b)
	}
	if computes.Load() != 1 {
		t.Errorf("computes after sync GET = %d, want 1 (served from cache)", computes.Load())
	}

	// The run appears in the listing.
	codeList, bodyList, _ := get(t, ts, "/v1/runs")
	if codeList != http.StatusOK || !strings.Contains(bodyList, rr.ID) {
		t.Errorf("GET /v1/runs = %d, missing %s", codeList, rr.ID)
	}
}

func TestRunEventsReplayIsByteIdentical(t *testing.T) {
	var computes atomic.Int64
	s := New(Config{}, []experiments.Experiment{progressExp("figp", 3, &computes, nil)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, body, _ := postRun(t, ts, `{"experiment":"figp"}`)
	rr := decodeRun(t, body)
	waitRunState(t, ts, rr.ID, jobs.StateDone)

	first := readEvents(t, ts, rr.ID, "")
	fr := frames(first)
	// running + 3 points + done
	if len(fr) != 5 {
		t.Fatalf("stream has %d frames, want 5:\n%s", len(fr), first)
	}
	for i, f := range fr {
		if !strings.HasPrefix(f, fmt.Sprintf("id: %d\n", i+1)) {
			t.Errorf("frame %d does not carry SSE id %d:\n%s", i, i+1, f)
		}
	}
	if !strings.Contains(fr[4], `"state":"done"`) || !strings.Contains(fr[4], `"tables"`) {
		t.Errorf("terminal frame lacks done state or result tables:\n%s", fr[4])
	}

	// A full reconnect replays the identical bytes.
	if second := readEvents(t, ts, rr.ID, ""); second != first {
		t.Errorf("full replay differs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	// A reconnect with Last-Event-ID: 2 replays exactly the byte suffix
	// after frame 2 — no gap, no duplicate, no reframing.
	if suffix := readEvents(t, ts, rr.ID, "2"); suffix != strings.Join(fr[2:], "") {
		t.Errorf("Last-Event-ID replay differs from the byte suffix:\n--- got\n%s\n--- want\n%s",
			suffix, strings.Join(fr[2:], ""))
	}
	// The ?after= query form is equivalent for clients without SSE
	// header support.
	code, afterBody, _ := get(t, ts, "/v1/runs/"+rr.ID+"/events?after=2")
	if code != http.StatusOK || afterBody != strings.Join(fr[2:], "") {
		t.Errorf("?after=2 replay = %d, differs from Last-Event-ID replay", code)
	}

	if code, body, _ := get(t, ts, "/v1/runs/"+rr.ID+"/events?after=x"); code != http.StatusBadRequest {
		t.Errorf("bogus ?after = %d %s, want 400", code, body)
	}
	if code, _, _ := get(t, ts, "/v1/runs/nope/events"); code != http.StatusNotFound {
		t.Errorf("events of unknown run = %d, want 404", code)
	}
}

func TestRunDedupeSharesOneRun(t *testing.T) {
	var computes atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Workers: 2}, []experiments.Experiment{progressExp("figp", 1, &computes, gate)})
	closeWithin(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, body1, _ := postRun(t, ts, `{"experiment":"figp"}`)
	first := decodeRun(t, body1)
	waitRunState(t, ts, first.ID, jobs.StateRunning)
	_, body2, _ := postRun(t, ts, `{"experiment":"figp"}`)
	second := decodeRun(t, body2)
	if !second.Deduped || second.ID != first.ID {
		t.Fatalf("concurrent identical submission = %+v, want joined onto %s", second, first.ID)
	}
	close(gate)
	waitRunState(t, ts, first.ID, jobs.StateDone)
	if computes.Load() != 1 {
		t.Errorf("computes = %d, want 1 (submissions shared one computation)", computes.Load())
	}
}

func TestRunQueueFullReturns429(t *testing.T) {
	var computes atomic.Int64
	gate := make(chan struct{})
	exps := []experiments.Experiment{
		progressExp("figa", 1, &computes, gate),
		progressExp("figb", 1, &computes, gate),
		progressExp("figc", 1, &computes, gate),
		progressExp("figd", 1, &computes, gate),
	}
	s := New(Config{Workers: 1, QueueSize: 1}, exps)
	closeWithin(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	// Release the gated jobs before the cleanup drain (defers run first).
	defer close(gate)

	// figa occupies the only worker; figb is held by the dispatcher
	// waiting for a slot; figc fills the one-deep queue; figd bounces.
	_, body, _ := postRun(t, ts, `{"experiment":"figa"}`)
	waitRunState(t, ts, decodeRun(t, body).ID, jobs.StateRunning)
	if code, b, _ := postRun(t, ts, `{"experiment":"figb"}`); code != http.StatusAccepted {
		t.Fatalf("figb = %d %s", code, b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.runs.Stats().QueueDepth != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if code, b, _ := postRun(t, ts, `{"experiment":"figc"}`); code != http.StatusAccepted {
		t.Fatalf("figc = %d %s", code, b)
	}
	code, b, hdr := postRun(t, ts, `{"experiment":"figd"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission = %d %s, want 429", code, b)
	}
	if got := hdr.Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After = %q, want %q", got, "5")
	}

	// /metrics reflects the saturation.
	_, mbody, _ := get(t, ts, "/metrics")
	var snap Snapshot
	if err := json.Unmarshal([]byte(mbody), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runs.Rejected != 1 || snap.Runs.QueueCap != 1 {
		t.Errorf("metrics runs = %+v, want rejected 1, queue_cap 1", snap.Runs)
	}
}

func TestRunCancelFreesComputeSlot(t *testing.T) {
	var computes atomic.Int64
	gate := make(chan struct{}) // never released: the job blocks on ctx
	s := New(Config{Workers: 1}, []experiments.Experiment{
		progressExp("figp", 1, &computes, gate),
		fakeExp("figq", &computes, nil),
	})
	closeWithin(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, body, _ := postRun(t, ts, `{"experiment":"figp"}`)
	rr := decodeRun(t, body)
	waitRunState(t, ts, rr.ID, jobs.StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+rr.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	waitRunState(t, ts, rr.ID, jobs.StateCancelled)
	// The freed slot serves the next request on the single-worker pool.
	// A slot never released would leave the request waiting, so it is
	// bounded.
	client := ts.Client()
	client.Timeout = 5 * time.Second
	resp, err = client.Get(ts.URL + "/v1/experiments/figq")
	if err != nil {
		t.Fatalf("sync request after cancel: %v (compute slot not freed?)", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync request after cancel = %d", resp.StatusCode)
	}

	if code, _, _ := func() (int, string, http.Header) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/nope", nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header
	}(); code != http.StatusNotFound {
		t.Errorf("DELETE unknown run = %d, want 404", code)
	}
}

// TestRunOverComputeTimeoutFails pins the async side of the one compute
// deadline: a run that outlives ComputeTimeout ends failed with a reason
// naming the limit (a deadline is not a client cancellation), writes
// nothing through to the cache, and the synchronous endpoint for the
// same key then computes afresh.
func TestRunOverComputeTimeoutFails(t *testing.T) {
	var computes atomic.Int64
	exp := experiments.Experiment{
		ID:          "figslow",
		Description: "outlives the deadline on its first run only",
		Run: func(ctx context.Context, _ float64) (experiments.Renderer, error) {
			if computes.Add(1) == 1 {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return &fakeResult{tables: oneTable("figslow")}, nil
		},
	}
	s := New(Config{ComputeTimeout: 50 * time.Millisecond}, []experiments.Experiment{exp})
	closeWithin(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body, _ := postRun(t, ts, `{"experiment":"figslow"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d %s", code, body)
	}
	final := waitRunState(t, ts, decodeRun(t, body).ID, jobs.StateFailed)
	if want := "timed out after 50ms: context deadline exceeded"; final.Error != want {
		t.Errorf("failed run reason = %q, want %q", final.Error, want)
	}
	code, body, hdr := get(t, ts, "/v1/experiments/figslow")
	if code != http.StatusOK || hdr.Get(cacheHeader) != "miss" {
		t.Errorf("sync GET after the timed-out run = %d (cache %q) %s, want 200 miss",
			code, hdr.Get(cacheHeader), body)
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("computes = %d, want 2 (the timed-out run, then the sync request)", got)
	}
}

// TestCloseDeadlineReachesRunBehindSyncCompute pins the one drain when a
// queued run waits for the slot a synchronous computation holds: at the
// deadline the run is interrupted without waiting for that slot, and the
// pool then cancels the synchronous computation, so Close returns on
// time instead of when the computation finishes.
func TestCloseDeadlineReachesRunBehindSyncCompute(t *testing.T) {
	var computes atomic.Int64
	gate := make(chan struct{}) // released only if Close misses its deadline
	s := New(Config{Workers: 1}, []experiments.Experiment{
		fakeExp("figslow", &computes, gate),
		progressExp("figp", 1, &computes, nil),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sync := make(chan int, 1)
	go func() {
		code, _, _ := get(t, ts, "/v1/experiments/figslow")
		sync <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for computes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compute never started")
		}
		time.Sleep(time.Millisecond)
	}
	_, body, _ := postRun(t, ts, `{"experiment":"figp"}`)
	id := decodeRun(t, body).ID
	for s.runs.Stats().QueueDepth != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- s.Close(ctx) }()
	select {
	case err := <-closed:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Close = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		close(gate)
		<-closed
		t.Fatal("Close still waiting 5 s after its 50 ms deadline")
	}
	if r, _ := s.runs.Get(id); r.State != jobs.StateFailed || !strings.Contains(r.Error, "interrupted") {
		t.Errorf("queued run = %s (%q), want failed/interrupted", r.State, r.Error)
	}
	if code := <-sync; code != http.StatusServiceUnavailable {
		t.Errorf("cancelled sync request = %d, want 503", code)
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1 (the interrupted run never started)", got)
	}
}

func TestRunSubmitValidation(t *testing.T) {
	var computes atomic.Int64
	s := New(Config{}, []experiments.Experiment{fakeExp("figx", &computes, nil)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		body string
		code int
		frag string
	}{
		{`not json`, http.StatusBadRequest, "parsing run request"},
		{`{}`, http.StatusBadRequest, "exactly one"},
		{`{"experiment":"figx","scenario":{"x":1}}`, http.StatusBadRequest, "exactly one"},
		{`{"experiment":"nope"}`, http.StatusNotFound, "unknown experiment"},
		{`{"experiment":"figx","duration":-1}`, http.StatusBadRequest, "invalid duration"},
		{`{"experiment":"figx","duration":1e9}`, http.StatusBadRequest, "longer than"},
		{`{"experiment":"figx","duration":5}`, http.StatusBadRequest, "transient"},
		{`{"scenario":{"name":"broken"}}`, http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		code, body, _ := postRun(t, ts, c.body)
		if code != c.code || !strings.Contains(body, c.frag) {
			t.Errorf("POST %s = %d %s, want %d containing %q", c.body, code, body, c.code, c.frag)
		}
	}
	if computes.Load() != 0 {
		t.Errorf("validation failures computed %d times", computes.Load())
	}
}

func TestRunSubmitOnFullDiskIs500(t *testing.T) {
	// A journal on /dev/full opens (nothing to replay) and fails every
	// write with ENOSPC, the disk-full fault.
	j, err := jobs.OpenJournal("/dev/full")
	if err != nil {
		t.Skipf("no /dev/full to journal on: %v", err)
	}
	var computes atomic.Int64
	s := New(Config{RunStore: j}, []experiments.Experiment{fakeExp("figx", &computes, nil)})
	defer s.Close(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	if code, body, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz before any write = %d %s, want 200", code, body)
	}

	// The same body twice: a refused submission leaves no dedupe key, so
	// the second is refused too instead of joining a phantom run.
	for i := 0; i < 2; i++ {
		if code, body, _ := postRun(t, ts, `{"experiment":"figx"}`); code != http.StatusInternalServerError ||
			!strings.Contains(body, "no space left") {
			t.Errorf("POST %d on a full disk = %d %s, want 500 naming ENOSPC", i+1, code, body)
		}
	}
	if _, body, _ := get(t, ts, "/v1/runs"); strings.TrimSpace(body) != "[]" {
		t.Errorf("runs after refused submissions = %s, want none", body)
	}
	if computes.Load() != 0 {
		t.Errorf("refused submissions computed %d times", computes.Load())
	}
	// The refusals are visible: counted as rejected, and health degraded.
	_, mbody, _ := get(t, ts, "/metrics")
	var snap Snapshot
	if err := json.Unmarshal([]byte(mbody), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Runs.Rejected != 2 {
		t.Errorf("metrics runs rejected = %d, want 2", snap.Runs.Rejected)
	}
	code, body, _ := get(t, ts, "/healthz")
	var health struct{ Status, Error string }
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || health.Status != "degraded" || !strings.Contains(health.Error, "no space left") {
		t.Errorf("healthz after a journal write error = %d %s, want 503 degraded naming ENOSPC", code, body)
	}
}

func TestDrainingRunsReturn503WithRetryAfter(t *testing.T) {
	var computes atomic.Int64
	s := New(Config{}, []experiments.Experiment{fakeExp("figx", &computes, nil)})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := postRun(t, ts, `{"experiment":"figx"}`)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") != "5" {
		t.Errorf("draining POST /v1/runs = %d (Retry-After %q) %s, want 503 with hint",
			code, hdr.Get("Retry-After"), body)
	}
	codeSync, bodySync, hdrSync := get(t, ts, "/v1/experiments/figx")
	if codeSync != http.StatusServiceUnavailable || hdrSync.Get("Retry-After") != "5" {
		t.Errorf("draining sync GET = %d (Retry-After %q) %s, want 503 with hint",
			codeSync, hdrSync.Get("Retry-After"), bodySync)
	}
}

// TestRunFig12MatchesSync is the jobs-runtime smoke: a real (shortened)
// fig12 submitted as an async run streams one partial table per sweep
// point and terminates with exactly the tables the synchronous endpoint
// computes on an independent server.
func TestRunFig12MatchesSync(t *testing.T) {
	if testing.Short() {
		t.Skip("real fig12 transient sweep; skipped with -short")
	}
	syncSrv := New(Config{}, nil)
	defer syncSrv.Close(context.Background())
	syncTS := httptest.NewServer(syncSrv)
	defer syncTS.Close()
	asyncSrv := New(Config{}, nil)
	defer asyncSrv.Close(context.Background())
	asyncTS := httptest.NewServer(asyncSrv)
	defer asyncTS.Close()

	code, syncBody, _ := get(t, syncTS, "/v1/experiments/fig12?duration=0.2")
	if code != http.StatusOK {
		t.Fatalf("sync fig12 = %d %s", code, syncBody)
	}
	want, _ := json.Marshal(decodeResult(t, syncBody).Tables)

	code, body, _ := postRun(t, asyncTS, `{"experiment":"fig12","duration":0.2}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST fig12 run = %d %s", code, body)
	}
	rr := decodeRun(t, body)
	stream := readEvents(t, asyncTS, rr.ID, "")

	points, total := 0, 0
	for _, f := range frames(stream) {
		for _, line := range strings.Split(f, "\n") {
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev jobs.Event
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Type == jobs.EventPoint {
				points++
				total = ev.Total
				if ev.Table == nil || len(ev.Table.Rows) != 1 {
					t.Errorf("point event %d lacks a one-row fragment table", ev.Seq)
				}
			}
		}
	}
	if points == 0 || points != total {
		t.Fatalf("streamed %d point events, want one per sweep point (total %d)", points, total)
	}

	final := waitRunState(t, asyncTS, rr.ID, jobs.StateDone)
	got, _ := json.Marshal(final.Tables)
	if string(got) != string(want) {
		t.Errorf("async fig12 tables differ from sync:\n--- async\n%s\n--- sync\n%s", got, want)
	}
	if final.Done != points || final.Total != total {
		t.Errorf("final progress %d/%d, want %d/%d", final.Done, final.Total, points, total)
	}
}
