package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darksim/internal/progress"
	"darksim/internal/report"
	"darksim/internal/runner"
)

// Errors the lifecycle API returns; the HTTP layer maps them to 429/503/404.
var (
	// ErrQueueFull reports that the submission queue is at capacity —
	// the backpressure signal (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("jobs: run queue is full")
	// ErrClosed reports a submission after Close began (HTTP 503).
	ErrClosed = errors.New("jobs: manager is shutting down")
	// ErrNotFound reports an unknown run id (HTTP 404).
	ErrNotFound = errors.New("jobs: run not found")
)

// Job is the unit of work a run executes, and the same compute type the
// synchronous serving path runs. It must honor ctx cancellation (that is
// what frees the compute slot on DELETE and on shutdown), may publish
// completed partial results with progress.Emit on ctx any number of
// times from any goroutine, and returns the terminal result tables.
type Job func(ctx context.Context) ([]*report.Table, error)

// subscriberBuffer is the per-subscriber event buffer. A subscriber
// that falls this far behind is disconnected and must reconnect with its
// last seen sequence number.
const subscriberBuffer = 256

// Config parameterizes a Manager. Zero values select the defaults.
type Config struct {
	// Journal persists run history across restarts; nil keeps runs in
	// memory only.
	Journal *Journal
	// Pool is the compute pool jobs execute on (required), and the
	// owner of their deadline. Passing the serving layer's pool makes
	// async runs and synchronous requests compete for the same slots.
	Pool *runner.Pool
	// QueueSize bounds runs waiting for a pool slot (default 64). A
	// full queue rejects Submit with ErrQueueFull.
	QueueSize int
	// Logger receives journal-failure diagnostics; nil disables logging.
	Logger *slog.Logger
	// Now is the clock (for tests); nil means time.Now.
	Now func() time.Time
}

// Stats is a point-in-time view of the runtime's gauges and counters.
type Stats struct {
	QueueDepth  int   `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`
	Queued      int64 `json:"queued"`
	Running     int64 `json:"running"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Cancelled   int64 `json:"cancelled"`
	Deduped     int64 `json:"deduped"`
	Rejected    int64 `json:"rejected"`
	Subscribers int64 `json:"subscribers"`
}

// run is the Manager's live handle on one run and the one place its
// event log is held. The run's own mutex guards its snapshot, events and
// subscriber set; an event is appended and broadcast under it, which is
// what makes Subscribe's replay-then-follow gapless.
type run struct {
	meta    Meta
	job     Job
	tracked bool // counted in runWG (false for runs recovered from the journal)

	mu          sync.Mutex
	snap        Run
	events      []Event // Seq order; never rewritten
	cancel      context.CancelFunc
	cancelReq   bool
	cancelState State  // terminal state a requested cancellation lands in
	cancelErr   string // and its recorded reason
	subs        map[int]chan Event
	nextSub     int
	journalLost bool // a journal write of this run failed (logged once)
}

// Manager owns the run lifecycle: a bounded submission queue drained by
// one dispatcher onto the compute pool, content-key dedupe across live
// runs, and fan-out of events to subscribers.
type Manager struct {
	journal *Journal
	pool    *runner.Pool
	now     func() time.Time
	log     *slog.Logger

	queue          chan *run
	dispatcherDone chan struct{}
	giveUp         context.Context // done once Close's deadline passed
	stopWaiting    context.CancelFunc
	runWG          sync.WaitGroup

	mu     sync.Mutex
	closed bool
	runs   map[string]*run
	order  []string
	byKey  map[string]*run

	queued      atomic.Int64
	running     atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	deduped     atomic.Int64
	rejected    atomic.Int64
	subscribers atomic.Int64
}

// New builds a Manager, moves the journal's replayed history into runs,
// marks runs that were live when the previous process died as failed
// (their completed points stay replayable — interrupted, never silently
// lost), and starts the dispatcher.
func New(cfg Config) *Manager {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	m := &Manager{
		journal:        cfg.Journal,
		pool:           cfg.Pool,
		now:            cfg.Now,
		log:            log,
		queue:          make(chan *run, cfg.QueueSize),
		dispatcherDone: make(chan struct{}),
		runs:           make(map[string]*run),
		byKey:          make(map[string]*run),
	}
	m.giveUp, m.stopWaiting = context.WithCancel(context.Background())
	m.recover()
	go m.dispatch()
	return m
}

// recover rebuilds runs from the journal's history and terminates
// interrupted ones: a run that was queued or running when the journal
// was last written cannot resume (its Job is gone with the old process),
// so it is marked failed — visibly, in the journal — rather than left
// dangling.
func (m *Manager) recover() {
	for _, jr := range m.journal.take() {
		r := &run{meta: jr.meta, events: jr.events, snap: snapshotOf(jr.meta, jr.events),
			subs: make(map[int]chan Event)}
		m.runs[jr.meta.ID] = r
		m.order = append(m.order, jr.meta.ID)
		if !r.snap.State.Terminal() {
			// Pre-load the gauge the transition below will decrement.
			if r.snap.State == StateRunning {
				m.running.Add(1)
			} else {
				m.queued.Add(1)
			}
			m.transition(r, StateFailed, "interrupted: run store reopened after restart", nil)
		}
	}
}

// newRunID returns a fresh random run id.
func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random run id: %v", err))
	}
	return "r" + hex.EncodeToString(b[:])
}

// Submit registers a run for job under the dedupe key. If a live run
// (queued or running) already holds the key, its snapshot is returned
// with joined=true and job is dropped — concurrent identical submissions
// share one run and one computation. A full queue returns ErrQueueFull,
// and a journal that cannot record the run returns its write error; both
// refusals count as rejected.
func (m *Manager) Submit(kind, label, key string, params map[string]string, job Job) (Run, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Run{}, false, ErrClosed
	}
	if r, ok := m.byKey[key]; ok {
		m.deduped.Add(1)
		return r.snapshot(), true, nil
	}
	if len(m.queue) == cap(m.queue) {
		m.rejected.Add(1)
		return Run{}, false, ErrQueueFull
	}
	meta := Meta{
		ID:      newRunID(),
		Kind:    kind,
		Label:   label,
		Key:     key,
		Params:  params,
		Created: m.now(),
	}
	if err := m.journal.write(journalRecord{Create: &meta}); err != nil {
		m.rejected.Add(1)
		return Run{}, false, err
	}
	r := &run{
		meta:    meta,
		job:     job,
		tracked: true,
		snap:    Run{Meta: meta, State: StateQueued},
		subs:    make(map[int]chan Event),
	}
	m.runs[meta.ID] = r
	m.order = append(m.order, meta.ID)
	m.byKey[key] = r
	m.runWG.Add(1)
	m.queued.Add(1)
	// Snapshot before the send: once r is queued the dispatcher may run
	// it to completion before Submit returns, and a new run is reported
	// as queued.
	snap := r.snapshot()
	// Guaranteed non-blocking: sends only happen here, under m.mu, and
	// the capacity check above just passed.
	m.queue <- r
	return snap, false, nil
}

// dispatch drains the queue onto the pool. pool.Go blocks while every
// worker slot is busy, which is the backpressure that lets the bounded
// queue fill and reject further submissions. It stops waiting for a
// slot once Close gave up on the drain (the slot may be held by a
// synchronous computation the drain cannot cancel); a run the pool
// refuses is failed, unless the drain already interrupted it.
func (m *Manager) dispatch() {
	defer close(m.dispatcherDone)
	for r := range m.queue {
		if err := m.pool.Go(m.giveUp, func(ctx context.Context) { m.execute(ctx, r) }); err != nil {
			m.transition(r, StateFailed, "interrupted: "+err.Error(), nil)
		}
	}
}

// execute runs one dequeued run to a terminal state.
func (m *Manager) execute(poolCtx context.Context, r *run) {
	r.mu.Lock()
	if r.snap.State.Terminal() {
		// Cancelled while still queued; nothing to do.
		r.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(poolCtx)
	r.cancel = cancel
	req, cancelState, cancelErr := r.cancelReq, r.cancelState, r.cancelErr
	r.mu.Unlock()
	defer cancel()
	if req {
		// Cancel arrived between dequeue and here.
		m.transition(r, cancelState, cancelErr, nil)
		return
	}
	m.transition(r, StateRunning, "", nil)
	ctx = progress.With(ctx, func(p progress.Point) { m.emitPoint(r, p.Table, p.Done, p.Total) })
	tables, err := r.job(ctx)

	r.mu.Lock()
	req, cancelState, cancelErr = r.cancelReq, r.cancelState, r.cancelErr
	r.mu.Unlock()
	switch {
	case err == nil:
		m.transition(r, StateDone, "", tables)
	case req && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		m.transition(r, cancelState, cancelErr, nil)
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil:
		// The pool's deadline names its limit as the cause.
		m.transition(r, StateFailed, fmt.Sprintf("%v: %v", context.Cause(ctx), err), nil)
	default:
		m.transition(r, StateFailed, err.Error(), nil)
	}
}

// appendLocked appends one event to the run's log and the journal,
// folds it into the snapshot, and broadcasts it. Callers hold r.mu. A
// failed journal write costs only durability: the event stays in the
// run's log for replay. A subscriber whose buffer is full is
// disconnected (channel closed) rather than allowed to stall the run; it
// reconnects with its last seen Seq and replays what it missed.
func (m *Manager) appendLocked(r *run, ev Event) {
	ev.Seq = r.snap.LastSeq + 1
	ev.Time = m.now()
	if err := m.journal.write(journalRecord{Run: r.meta.ID, Event: &ev}); err != nil && !r.journalLost {
		r.journalLost = true
		m.log.Error("run journal append failed; a restart will miss this run's later events",
			"run", r.meta.ID, "seq", ev.Seq, "err", err)
	}
	r.events = append(r.events, ev)
	r.snap.apply(ev)
	for id, ch := range r.subs {
		select {
		case ch <- ev:
		default:
			delete(r.subs, id)
			close(ch)
			m.subscribers.Add(-1)
		}
	}
	if ev.Type == EventState && ev.State.Terminal() {
		for id, ch := range r.subs {
			delete(r.subs, id)
			close(ch)
			m.subscribers.Add(-1)
		}
	}
}

// emitPoint records one partial result.
func (m *Manager) emitPoint(r *run, tbl *report.Table, done, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap.State.Terminal() {
		// A straggling worker goroutine after cancellation.
		return
	}
	m.appendLocked(r, Event{Type: EventPoint, Done: done, Total: total, Table: tbl})
}

// transition moves the run to st (recording errMsg / result tables) and
// updates the bookkeeping. It reports whether the transition happened —
// terminal states are sticky, so exactly one caller wins.
func (m *Manager) transition(r *run, st State, errMsg string, tables []*report.Table) bool {
	r.mu.Lock()
	prev := r.snap.State
	if prev.Terminal() {
		r.mu.Unlock()
		return false
	}
	ev := Event{Type: EventState, State: st, Error: errMsg, Tables: tables,
		Done: r.snap.Done, Total: r.snap.Total}
	m.appendLocked(r, ev)
	r.mu.Unlock()

	if prev == StateQueued {
		m.queued.Add(-1)
	}
	if prev == StateRunning {
		m.running.Add(-1)
	}
	switch st {
	case StateRunning:
		m.running.Add(1)
	case StateDone:
		m.completed.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCancelled:
		m.cancelled.Add(1)
	}
	if st.Terminal() {
		m.mu.Lock()
		if m.byKey[r.meta.Key] == r {
			delete(m.byKey, r.meta.Key)
		}
		m.mu.Unlock()
		if r.tracked {
			m.runWG.Done()
		}
	}
	return true
}

// snapshot returns a copy of the run's current state. The tables and
// params it references are immutable once published.
func (r *run) snapshot() Run {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap
}

// Get returns the snapshot of one run.
func (m *Manager) Get(id string) (Run, bool) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return Run{}, false
	}
	return r.snapshot(), true
}

// List returns snapshots of every known run in creation order.
func (m *Manager) List() []Run {
	m.mu.Lock()
	runs := make([]*run, 0, len(m.order))
	for _, id := range m.order {
		runs = append(runs, m.runs[id])
	}
	m.mu.Unlock()
	out := make([]Run, len(runs))
	for i, r := range runs {
		out[i] = r.snapshot()
	}
	return out
}

// ListKind lists every known run of one kind (e.g. "experiment",
// "scenario", "policy"), oldest first; an empty kind lists everything.
func (m *Manager) ListKind(kind string) []Run {
	all := m.List()
	if kind == "" {
		return all
	}
	out := make([]Run, 0, len(all))
	for _, r := range all {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// Cancel requests cooperative cancellation of a run. Queued runs are
// cancelled immediately; running runs get their context cancelled and
// reach StateCancelled when the job returns (freeing its pool slot).
// Cancelling a terminal run is a no-op. The returned snapshot reflects
// the state after the request was applied.
func (m *Manager) Cancel(id string) (Run, error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return Run{}, ErrNotFound
	}
	r.mu.Lock()
	st := r.snap.State
	if st.Terminal() {
		r.mu.Unlock()
		return r.snapshot(), nil
	}
	r.cancelReq = true
	r.cancelState = StateCancelled
	r.cancelErr = "cancelled by client"
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	} else {
		// Not yet dispatched: transition directly. If the dispatcher
		// started it in the meantime, execute observes cancelReq and this
		// transition loses benignly.
		m.transition(r, StateCancelled, "cancelled by client", nil)
	}
	return r.snapshot(), nil
}

// Subscribe returns the logged events of a run with Seq > afterSeq plus
// a live channel for what follows, with no gap or duplicate between the
// two (both are taken under the run's event lock). The channel is
// closed after the terminal event — or early if the subscriber falls too
// far behind, in which case it should resubscribe from its last seen
// Seq. cancel releases the subscription; it is idempotent.
func (m *Manager) Subscribe(id string, afterSeq int64) (replay []Event, ch <-chan Event, cancel func(), err error) {
	m.mu.Lock()
	r := m.runs[id]
	m.mu.Unlock()
	if r == nil {
		return nil, nil, nil, ErrNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Events are in Seq order; binary-search the resume point. Logged
	// events are never rewritten, so the capped slice is a stable view.
	i := sort.Search(len(r.events), func(i int) bool { return r.events[i].Seq > afterSeq })
	replay = r.events[i:len(r.events):len(r.events)]
	if r.snap.State.Terminal() {
		done := make(chan Event)
		close(done)
		return replay, done, func() {}, nil
	}
	c := make(chan Event, subscriberBuffer)
	subID := r.nextSub
	r.nextSub++
	r.subs[subID] = c
	m.subscribers.Add(1)
	cancel = func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.subs[subID]; ok {
			delete(r.subs, subID)
			close(c)
			m.subscribers.Add(-1)
		}
	}
	return replay, c, cancel, nil
}

// Stats samples the runtime's gauges and counters.
func (m *Manager) Stats() Stats {
	return Stats{
		QueueDepth:  len(m.queue),
		QueueCap:    cap(m.queue),
		Queued:      m.queued.Load(),
		Running:     m.running.Load(),
		Completed:   m.completed.Load(),
		Failed:      m.failed.Load(),
		Cancelled:   m.cancelled.Load(),
		Deduped:     m.deduped.Load(),
		Rejected:    m.rejected.Load(),
		Subscribers: m.subscribers.Load(),
	}
}

// Close stops accepting submissions, lets queued and running runs drain
// within ctx, then cancels the stragglers (marking them failed, the
// queued ones too) and closes the journal. It is idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	already := m.closed
	m.closed = true
	if !already {
		close(m.queue)
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		<-m.dispatcherDone
		m.runWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		m.interruptAll()
		m.stopWaiting()
		<-drained
	}
	if already {
		return nil
	}
	if err := m.journal.Close(); err != nil {
		return err
	}
	return ctx.Err()
}

// interruptAll cancels every live run, marking it failed: a drain that
// ran out of time is an interruption, not a client cancellation.
func (m *Manager) interruptAll() {
	m.mu.Lock()
	runs := make([]*run, 0, len(m.runs))
	for _, r := range m.runs {
		runs = append(runs, r)
	}
	m.mu.Unlock()
	for _, r := range runs {
		r.mu.Lock()
		if r.snap.State.Terminal() {
			r.mu.Unlock()
			continue
		}
		r.cancelReq = true
		r.cancelState = StateFailed
		r.cancelErr = "interrupted: shutting down"
		cancel := r.cancel
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		} else {
			m.transition(r, StateFailed, "interrupted: shutting down", nil)
		}
	}
}
