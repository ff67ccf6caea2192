package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"darksim/internal/progress"
	"darksim/internal/report"
	"darksim/internal/runner"
)

// frag returns a one-row fragment table for point i.
func frag(i int) *report.Table {
	return &report.Table{
		Title:   fmt.Sprintf("point %d", i),
		Columns: []string{"v"},
		Rows:    [][]string{{fmt.Sprintf("%d", i)}},
	}
}

// newManager builds a Manager on a fresh pool; without a journal the
// runs live in memory only.
func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool = runner.NewPool(2, 0)
	}
	m := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

// waitState polls until the run reaches state st or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, st State) Run {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r, ok := m.Get(id)
		if !ok {
			t.Fatalf("run %s vanished", id)
		}
		if r.State == st {
			return r
		}
		time.Sleep(2 * time.Millisecond)
	}
	r, _ := m.Get(id)
	t.Fatalf("run %s never reached %s (state %s, err %q)", id, st, r.State, r.Error)
	return Run{}
}

func TestRunLifecycleAndEvents(t *testing.T) {
	m := newManager(t, Config{})
	job := func(ctx context.Context) ([]*report.Table, error) {
		for i := 1; i <= 3; i++ {
			progress.Emit(ctx, progress.Point{Table: frag(i), Done: i, Total: 3})
		}
		return []*report.Table{frag(99)}, nil
	}
	run, joined, err := m.Submit("experiment", "figx", "figx", map[string]string{"k": "v"}, job)
	if err != nil || joined {
		t.Fatalf("Submit = joined %v, err %v", joined, err)
	}
	if run.State != StateQueued {
		t.Fatalf("initial state = %s, want queued", run.State)
	}
	final := waitState(t, m, run.ID, StateDone)
	if final.Done != 3 || final.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3", final.Done, final.Total)
	}
	if len(final.Tables) != 1 || final.Tables[0].Title != "point 99" {
		t.Errorf("terminal tables = %+v, want the job's result", final.Tables)
	}
	if final.Started.IsZero() || final.Finished.IsZero() {
		t.Errorf("timestamps not recorded: started %v finished %v", final.Started, final.Finished)
	}

	events := logOf(t, m, run.ID)
	// running, 3 points, done — in order, contiguous seq from 1.
	types := make([]string, len(events))
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		types[i] = ev.Type
	}
	want := []string{EventState, EventPoint, EventPoint, EventPoint, EventState}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("event types = %v, want %v", types, want)
	}
	last := events[len(events)-1]
	if last.State != StateDone || len(last.Tables) != 1 {
		t.Errorf("terminal event = %+v, want done with tables", last)
	}

	st := m.Stats()
	if st.Completed != 1 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats = %+v, want one completed, no live runs", st)
	}
}

func TestSubmitDedupesLiveRuns(t *testing.T) {
	m := newManager(t, Config{})
	gate := make(chan struct{})
	computes := 0
	job := func(ctx context.Context) ([]*report.Table, error) {
		computes++
		<-gate
		return []*report.Table{frag(1)}, nil
	}
	first, joined, err := m.Submit("experiment", "figx", "figx", nil, job)
	if err != nil || joined {
		t.Fatalf("first Submit = joined %v, err %v", joined, err)
	}
	second, joined, err := m.Submit("experiment", "figx", "figx", nil, job)
	if err != nil || !joined {
		t.Fatalf("second Submit = joined %v, err %v, want joined", joined, err)
	}
	if first.ID != second.ID {
		t.Fatalf("deduped submission got run %s, want %s", second.ID, first.ID)
	}
	close(gate)
	waitState(t, m, first.ID, StateDone)
	if computes != 1 {
		t.Errorf("computes = %d, want 1 (shared run)", computes)
	}
	if got := m.Stats().Deduped; got != 1 {
		t.Errorf("deduped counter = %d, want 1", got)
	}
	// The key is free again after the run finished: a new submission
	// starts a fresh run instead of returning the stale result.
	third, joined, err := m.Submit("experiment", "figx", "figx", nil, job)
	if err != nil || joined {
		t.Fatalf("post-terminal Submit = joined %v, err %v", joined, err)
	}
	if third.ID == first.ID {
		t.Error("post-terminal submission reused the finished run")
	}
}

func TestQueueFullRejects(t *testing.T) {
	pool := runner.NewPool(1, 0)
	m := newManager(t, Config{Pool: pool, QueueSize: 1})
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	blocked := func(ctx context.Context) ([]*report.Table, error) {
		select {
		case <-gate:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// a occupies the single worker; b is pulled by the dispatcher, which
	// then blocks on the pool — leaving the queue empty for c; d must be
	// rejected.
	a, _, err := m.Submit("experiment", "a", "a", nil, blocked)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	if _, _, err := m.Submit("experiment", "b", "b", nil, blocked); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().QueueDepth != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := m.Submit("experiment", "c", "c", nil, blocked); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit("experiment", "d", "d", nil, blocked); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fourth Submit err = %v, want ErrQueueFull", err)
	}
	if got := m.Stats().Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	close(gate)
}

func TestCancelQueuedRun(t *testing.T) {
	pool := runner.NewPool(1, 0)
	m := newManager(t, Config{Pool: pool, QueueSize: 4})
	gate := make(chan struct{})
	defer close(gate)
	blocked := func(ctx context.Context) ([]*report.Table, error) {
		select {
		case <-gate:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	a, _, err := m.Submit("experiment", "a", "a", nil, blocked)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	b, _, err := m.Submit("experiment", "b", "b", nil, blocked)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Cancel(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCancelled {
		t.Fatalf("cancelled-while-queued state = %s, want cancelled immediately", snap.State)
	}
	if got := m.Stats().Cancelled; got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
	if _, err := m.Cancel(b.ID); err != nil {
		t.Errorf("cancelling a terminal run: %v, want no-op", err)
	}
	if _, err := m.Cancel("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancelling unknown run err = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningFreesPoolSlot(t *testing.T) {
	pool := runner.NewPool(1, 0)
	m := newManager(t, Config{Pool: pool})
	job := func(ctx context.Context) ([]*report.Table, error) {
		progress.Emit(ctx, progress.Point{Table: frag(1), Done: 1, Total: 2})
		<-ctx.Done()
		return nil, ctx.Err()
	}
	run, _, err := m.Submit("experiment", "figx", "figx", nil, job)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, run.ID, StateRunning)
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, run.ID, StateCancelled)
	if final.Done != 1 {
		t.Errorf("cancelled run lost its completed point: done = %d", final.Done)
	}
	// The pool's one slot is free again: new work runs to completion.
	again, _, err := m.Submit("experiment", "figy", "figy", nil,
		func(ctx context.Context) ([]*report.Table, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, again.ID, StateDone)
}

func TestSubscribeReplayThenFollowIsGapless(t *testing.T) {
	m := newManager(t, Config{})
	release := make(chan struct{})
	job := func(ctx context.Context) ([]*report.Table, error) {
		progress.Emit(ctx, progress.Point{Table: frag(1), Done: 1, Total: 3})
		progress.Emit(ctx, progress.Point{Table: frag(2), Done: 2, Total: 3})
		<-release
		progress.Emit(ctx, progress.Point{Table: frag(3), Done: 3, Total: 3})
		return []*report.Table{frag(9)}, nil
	}
	run, _, err := m.Submit("experiment", "figx", "figx", nil, job)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first two points are persisted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, _ := m.Get(run.ID)
		if r.Done >= 2 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("run never reached 2 points: %+v", r)
		}
		time.Sleep(2 * time.Millisecond)
	}
	replay, live, stop, err := m.Subscribe(run.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	close(release)
	var seqs []int64
	for _, ev := range replay {
		seqs = append(seqs, ev.Seq)
	}
	for ev := range live {
		seqs = append(seqs, ev.Seq)
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("event sequence %v has a gap or duplicate at %d", seqs, i)
		}
	}
	// running + 3 points + done
	if len(seqs) != 5 {
		t.Fatalf("saw %d events %v, want 5", len(seqs), seqs)
	}
	// Subscribing to a finished run yields a pure replay and a closed
	// channel; resuming mid-log yields only the suffix.
	replay2, live2, stop2, err := m.Subscribe(run.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	if _, open := <-live2; open {
		t.Error("terminal run's live channel delivered an event, want closed")
	}
	if len(replay2) != 2 || replay2[0].Seq != 4 {
		t.Errorf("resume-after-3 replay = %+v, want seqs 4,5", replay2)
	}
	if _, _, _, err := m.Subscribe("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Subscribe unknown run err = %v, want ErrNotFound", err)
	}
}

func TestCloseInterruptsStragglers(t *testing.T) {
	pool := runner.NewPool(1, 0)
	m := New(Config{Pool: pool})
	started := make(chan struct{})
	job := func(ctx context.Context) ([]*report.Table, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	run, _, err := m.Submit("experiment", "figx", "figx", nil, job)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close err = %v, want deadline exceeded (drain timed out)", err)
	}
	r, _ := m.Get(run.ID)
	if r.State != StateFailed || !strings.Contains(r.Error, "interrupted") {
		t.Errorf("interrupted run = %s (%q), want failed/interrupted", r.State, r.Error)
	}
	if _, _, err := m.Submit("experiment", "y", "y", nil, job); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close err = %v, want ErrClosed", err)
	}
}

// TestCloseInterruptsRunWaitingForSlot pins the drain deadline while the
// dispatcher waits for a slot: the running run holds the only one until
// its context is cancelled, so Close must interrupt it and the run
// waiting behind it at the deadline instead of waiting for the slot.
func TestCloseInterruptsRunWaitingForSlot(t *testing.T) {
	m := New(Config{Pool: runner.NewPool(1, 0)})
	job := func(ctx context.Context) ([]*report.Table, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	a, _, err := m.Submit("experiment", "a", "a", nil, job)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	b, _, err := m.Submit("experiment", "b", "b", nil, job)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().QueueDepth != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- m.Close(ctx) }()
	select {
	case err := <-closed:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Close err = %v, want deadline exceeded (drain timed out)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting 5 s after its 50 ms deadline")
	}
	for _, id := range []string{a.ID, b.ID} {
		r, _ := m.Get(id)
		if r.State != StateFailed || !strings.Contains(r.Error, "interrupted") {
			t.Errorf("run %s = %s (%q), want failed/interrupted", id, r.State, r.Error)
		}
	}
}

// logOf returns a run's whole event log as a subscriber replays it.
func logOf(t *testing.T, m *Manager, id string) []Event {
	t.Helper()
	replay, _, stop, err := m.Subscribe(id, 0)
	if err != nil {
		t.Fatalf("Subscribe %s: %v", id, err)
	}
	stop()
	return replay
}

// sameJSON reports whether two event logs marshal to the same bytes —
// the bytes their SSE frames carry.
func sameJSON(t *testing.T, a, b []Event) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

// openJournal opens the journal at path or fails the test.
func openJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j
}

// finishOne submits a run that publishes one point and finishes.
func finishOne(t *testing.T, m *Manager, key string) Run {
	t.Helper()
	run, _, err := m.Submit("experiment", key, key, nil, func(ctx context.Context) ([]*report.Table, error) {
		progress.Emit(ctx, progress.Point{Table: frag(1), Done: 1, Total: 1})
		return []*report.Table{frag(9)}, nil
	})
	if err != nil {
		t.Fatalf("Submit %s: %v", key, err)
	}
	return waitState(t, m, run.ID, StateDone)
}

// requireOneRecordPerLine fails unless the journal at path ends in a
// newline and every line is one intact JSON record.
func requireOneRecordPerLine(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("journal does not end in a newline: %q", data)
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("journal line %d is not one record: %q", i+1, line)
		}
	}
}

func TestFileStoreRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")

	// First life: a daemon journals a run mid-flight — created, running,
	// two completed points — and dies while writing the next record.
	m := newManager(t, Config{Journal: openJournal(t, path)})
	gate := make(chan struct{})
	defer close(gate)
	run, _, err := m.Submit("experiment", "fig12", "fig12", nil, func(ctx context.Context) ([]*report.Table, error) {
		progress.Emit(ctx, progress.Point{Table: frag(1), Done: 1, Total: 3})
		progress.Emit(ctx, progress.Point{Table: frag(2), Done: 2, Total: 3})
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r, _ := m.Get(run.ID); r.Done < 2; r, _ = m.Get(run.ID) {
		if !time.Now().Before(deadline) {
			t.Fatalf("run never reached 2 points: %+v", r)
		}
		time.Sleep(2 * time.Millisecond)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "crashed.jsonl")
	torn := fmt.Sprintf(`{"run":%q,"event":{"seq":4,"type":"po`, run.ID)
	if err := os.WriteFile(crashed, append(data, torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Two more lives on the crashed file: each comes up, shows the run
	// failed/interrupted with its completed points intact and
	// replayable; the second life also finishes a new run, which the
	// third replays in full.
	var second Run
	var secondLog []Event
	for life := 2; life <= 3; life++ {
		pool := runner.NewPool(2, 0)
		restarted := New(Config{Journal: openJournal(t, crashed), Pool: pool})
		r, ok := restarted.Get(run.ID)
		if !ok {
			t.Fatalf("life %d: recovered run not visible", life)
		}
		if r.State != StateFailed || !strings.Contains(r.Error, "interrupted") {
			t.Fatalf("life %d: recovered run = %s (%q), want failed/interrupted", life, r.State, r.Error)
		}
		if r.Done != 2 || r.Total != 3 {
			t.Errorf("life %d: recovered progress = %d/%d, want 2/3", life, r.Done, r.Total)
		}
		replay, live, stop, err := restarted.Subscribe(run.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, open := <-live; open {
			t.Errorf("life %d: recovered run's live channel delivered an event, want closed", life)
		}
		stop()
		if len(replay) != 4 {
			t.Fatalf("life %d: replay has %d events, want 4 (running, 2 points, failed)", life, len(replay))
		}
		if replay[1].Table == nil || replay[1].Table.Rows[0][0] != "1" {
			t.Errorf("life %d: first point's table not preserved: %+v", life, replay[1])
		}
		if terminal := replay[3]; terminal.State != StateFailed || terminal.Seq != 4 {
			t.Errorf("life %d: terminal recovery event = %+v, want failed at seq 4", life, terminal)
		}
		if life == 2 {
			second = finishOne(t, restarted, "fresh")
			secondLog = logOf(t, restarted, second.ID)
		} else if got := logOf(t, restarted, second.ID); !sameJSON(t, got, secondLog) {
			t.Errorf("life 3: the run finished in life 2 replays as %+v, want %+v", got, secondLog)
		}
		if err := restarted.Close(context.Background()); err != nil {
			t.Fatalf("life %d: Close: %v", life, err)
		}
		requireOneRecordPerLine(t, crashed)
	}
}

func TestFileStoreToleratesTornFinalWrite(t *testing.T) {
	// r1 was mid-flight when its daemon died: created, running, one
	// point. The crash tore the record after that, either mid-line or
	// just before its newline.
	head := `{"create":{"id":"r1","kind":"experiment","label":"x","key":"x","created":"2026-08-07T01:02:03Z"}}
{"run":"r1","event":{"seq":1,"type":"state","time":"2026-08-07T01:02:04Z","state":"running"}}
{"run":"r1","event":{"seq":2,"type":"point","time":"2026-08-07T01:02:05Z","done":1,"total":3}}
`
	point := `{"run":"r1","event":{"seq":3,"type":"point","time":"2026-08-07T01:02:06Z","done":2,"total":3}}`
	for _, tc := range []struct {
		name string
		tail string
		kept int // r1's events that survive the crash
	}{
		{"torn record", point[:40], 2},
		{"record without newline", point, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "runs.jsonl")
			if err := os.WriteFile(path, []byte(head+tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			// Restart: recovery appends r1's failed event, then a new run
			// is submitted and finishes.
			pool := runner.NewPool(2, 0)
			m := New(Config{Journal: openJournal(t, path), Pool: pool})
			r1, _ := m.Get("r1")
			if r1.State != StateFailed || r1.LastSeq != int64(tc.kept+1) {
				t.Fatalf("recovered r1 = %s at seq %d, want failed at seq %d", r1.State, r1.LastSeq, tc.kept+1)
			}
			r2 := finishOne(t, m, "y")
			want := map[string][]Event{"r1": logOf(t, m, "r1"), r2.ID: logOf(t, m, r2.ID)}
			if err := m.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			// The recovery's append landed on its own line despite the
			// torn tail.
			requireOneRecordPerLine(t, path)

			// Reopen: both runs replay with every event.
			pool = runner.NewPool(2, 0)
			re := New(Config{Journal: openJournal(t, path), Pool: pool})
			defer re.Close(context.Background())
			for id, evs := range want {
				if got := logOf(t, re, id); !sameJSON(t, got, evs) {
					t.Errorf("run %s replays as %+v, want %+v", id, got, evs)
				}
			}
			if r, _ := re.Get(r2.ID); r.State != StateDone || len(r.Tables) != 1 {
				t.Errorf("reopened r2 = %s with %d tables, want done with its result", r.State, len(r.Tables))
			}
		})
	}
}

func TestJournalRejectsCorruptHistory(t *testing.T) {
	create := `{"create":{"id":"r1","kind":"experiment","label":"x","key":"x","created":"2026-08-07T01:02:03Z"}}`
	event := `{"run":"r1","event":{"seq":1,"type":"state","time":"2026-08-07T01:02:04Z","state":"running"}}`
	for name, lines := range map[string][]string{
		"corrupt interior line":      {`{"create":{broken`, event},
		"interior record of neither": {create, `{"note":"x"}`, event},
		"duplicate create":           {create, create},
		"event for an unknown run":   {strings.Replace(event, `"r1"`, `"r2"`, 1)},
	} {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		data := []byte(strings.Join(lines, "\n") + "\n")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, err := OpenJournal(path); err == nil {
			j.Close()
			t.Errorf("%s: OpenJournal succeeded, want an error", name)
		}
		if after, _ := os.ReadFile(path); string(after) != string(data) {
			t.Errorf("%s: a refused journal was modified", name)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for a logger's concurrent writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestJournalWriteErrorMidRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j := openJournal(t, path)
	var logs syncBuffer
	m := newManager(t, Config{Journal: j, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	gate := make(chan struct{})
	run, _, err := m.Submit("experiment", "x", "x", nil, func(ctx context.Context) ([]*report.Table, error) {
		progress.Emit(ctx, progress.Point{Table: frag(1), Done: 1, Total: 3})
		<-gate
		progress.Emit(ctx, progress.Point{Table: frag(2), Done: 2, Total: 3})
		progress.Emit(ctx, progress.Point{Table: frag(3), Done: 3, Total: 3})
		return []*report.Table{frag(9)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r, _ := m.Get(run.ID); r.Done < 1; r, _ = m.Get(run.ID) {
		if !time.Now().Before(deadline) {
			t.Fatalf("run never reached its first point: %+v", r)
		}
		time.Sleep(2 * time.Millisecond)
	}
	replay, live, stop, err := m.Subscribe(run.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	before := append([]Event(nil), replay...)

	// The fault: the journal's file is closed under the running job.
	j.mu.Lock()
	j.f.Close()
	j.mu.Unlock()
	close(gate)

	var seqs []int64
	for _, ev := range replay {
		seqs = append(seqs, ev.Seq)
	}
	for ev := range live {
		seqs = append(seqs, ev.Seq)
	}
	if fmt.Sprint(seqs) != "[1 2 3 4 5]" {
		t.Errorf("subscriber saw seqs %v, want [1 2 3 4 5] (running, 3 points, done)", seqs)
	}
	final := waitState(t, m, run.ID, StateDone)
	if final.Done != 3 || len(final.Tables) != 1 {
		t.Errorf("final run = %d points, %d tables, want 3 and the result", final.Done, len(final.Tables))
	}
	if n := strings.Count(logs.String(), "run journal append failed"); n != 1 {
		t.Errorf("journal failure logged %d times for one run, want once:\n%s", n, logs.String())
	}

	// Reopening yields exactly the records written before the fault.
	re := openJournal(t, path)
	defer re.Close()
	runs := re.take()
	if len(runs) != 1 || runs[0].meta.ID != run.ID || !sameJSON(t, runs[0].events, before) {
		t.Errorf("reopened journal holds %+v, want run %s with its first %d events", runs, run.ID, len(before))
	}
}

func TestJournalDiskFull(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full to fill the disk with: %v", err)
	}
	defer full.Close()
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j := openJournal(t, path)
	m := newManager(t, Config{Journal: j})
	a := finishOne(t, m, "a")
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The fault: the disk fills up. The next submission cannot be
	// recorded, so it is refused and leaves nothing behind.
	j.mu.Lock()
	disk := j.f
	j.f = full
	j.mu.Unlock()
	noop := func(context.Context) ([]*report.Table, error) { return nil, nil }
	if _, _, err := m.Submit("experiment", "b", "b", nil, noop); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Submit on a full disk err = %v, want ENOSPC", err)
	}
	m.mu.Lock()
	_, leftover := m.byKey["b"]
	runs := len(m.runs)
	m.mu.Unlock()
	if leftover || runs != 1 {
		t.Errorf("refused submission left dedupe key %v and %d runs, want none and 1", leftover, runs)
	}

	// Space comes back, but the journal stays refused: a record after a
	// failed write could follow a torn line.
	j.mu.Lock()
	j.f = disk
	j.mu.Unlock()
	if _, _, err := m.Submit("experiment", "c", "c", nil, noop); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("Submit after the fault err = %v, want the sticky ENOSPC", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(written) {
		t.Errorf("the journal grew after its write error:\n%s", after[len(written):])
	}

	// Reopening yields exactly the records written before the fault.
	re := openJournal(t, path)
	defer re.Close()
	got := re.take()
	if len(got) != 1 || got[0].meta.ID != a.ID || !sameJSON(t, got[0].events, logOf(t, m, a.ID)) {
		t.Errorf("reopened journal holds %+v, want run %s in full", got, a.ID)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	ev := Event{Seq: 7, Type: EventPoint, Time: time.Date(2026, 8, 7, 1, 2, 3, 0, time.UTC),
		Done: 2, Total: 5, Table: frag(2)}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("event JSON is not round-trip stable:\n%s\n%s", data, data2)
	}
}
