package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// newManager builds a Manager on a fresh pool; the default store is
// in-memory.
func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool, _ = runner.WithContext(context.Background(), 2)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
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

	events, err := m.store.Events(run.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	pool, _ := runner.WithContext(context.Background(), 1)
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
	pool, _ := runner.WithContext(context.Background(), 1)
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
	pool, _ := runner.WithContext(context.Background(), 1)
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
	if got := pool.Active(); got != 1 {
		t.Fatalf("pool active = %d during run, want 1", got)
	}
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, run.ID, StateCancelled)
	if final.Done != 1 {
		t.Errorf("cancelled run lost its completed point: done = %d", final.Done)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pool.Active() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := pool.Active(); got != 0 {
		t.Fatalf("pool active = %d after cancellation, want 0 (slot freed)", got)
	}
	// The freed slot accepts new work.
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
	pool, _ := runner.WithContext(context.Background(), 1)
	m, err := New(Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
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

func TestFileStoreRestartRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")

	// First life: a daemon persists a run mid-flight — created, running,
	// two completed points — then dies without a terminal event.
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "r1", Kind: "experiment", Label: "fig12", Key: "fig12", Created: time.Now().UTC()}
	if err := store.Create(meta); err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{Seq: 1, Type: EventState, State: StateRunning, Time: time.Now().UTC()},
		{Seq: 2, Type: EventPoint, Done: 1, Total: 3, Table: frag(1), Time: time.Now().UTC()},
		{Seq: 3, Type: EventPoint, Done: 2, Total: 3, Table: frag(2), Time: time.Now().UTC()},
	}
	for _, ev := range evs {
		if err := store.Append("r1", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the manager reopens the store; the interrupted run is
	// visible, failed, with its completed points intact and replayable.
	store2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m := newManager(t, Config{Store: store2})
	r, ok := m.Get("r1")
	if !ok {
		t.Fatal("recovered run not visible")
	}
	if r.State != StateFailed || !strings.Contains(r.Error, "interrupted") {
		t.Fatalf("recovered run = %s (%q), want failed/interrupted", r.State, r.Error)
	}
	if r.Done != 2 || r.Total != 3 {
		t.Errorf("recovered progress = %d/%d, want 2/3", r.Done, r.Total)
	}
	replay, live, stop, err := m.Subscribe("r1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, open := <-live; open {
		t.Error("recovered run's live channel delivered an event, want closed")
	}
	if len(replay) != 4 {
		t.Fatalf("replay has %d events, want 4 (running, 2 points, failed)", len(replay))
	}
	if replay[1].Table == nil || replay[1].Table.Rows[0][0] != "1" {
		t.Errorf("first point's table not preserved: %+v", replay[1])
	}
	terminal := replay[3]
	if terminal.State != StateFailed || terminal.Seq != 4 {
		t.Errorf("terminal recovery event = %+v, want failed at seq 4", terminal)
	}
	// The failure is persisted, not just in memory: a third open sees it.
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	store3, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	evs3, err := store3.Events("r1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs3) != 4 || evs3[3].State != StateFailed {
		t.Errorf("persisted history after recovery = %d events, want the failed terminal on disk", len(evs3))
	}
}

func TestFileStoreToleratesTornFinalWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create(Meta{ID: "r1", Kind: "experiment", Label: "x", Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Append("r1", Event{Seq: 1, Type: EventState, State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record on the final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"run":"r1","event":{"seq":2,"ty`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen with torn final line: %v", err)
	}
	evs, err := re.Events("r1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Errorf("replayed %d events, want 1 (torn line dropped)", len(evs))
	}
	// The next append lands on its own line despite the torn tail.
	if err := re.Append("r1", Event{Seq: 2, Type: EventState, State: StateFailed}); err != nil {
		t.Fatal(err)
	}
	re.Close()

	// Corruption anywhere else is a hard error, not silent data loss.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	lines[0] = `{"create":{broken`
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Error("reopening a store with a corrupt interior line succeeded, want error")
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
