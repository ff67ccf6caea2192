// Package jobs is the asynchronous run runtime: submit a computation,
// get a RunID back immediately, and follow its lifecycle — queued →
// running → done/failed/cancelled — through the run's event log, which
// records every state transition and every partial result table.
//
// The pieces:
//
//   - Manager: run lifecycle over a bounded submission queue whose jobs
//     execute on an externally owned runner.Pool, so async runs and
//     synchronous requests compete for the same compute slots under the
//     same deadline. A full
//     queue rejects submissions (backpressure, ErrQueueFull → HTTP 429);
//     identical concurrent submissions dedupe onto one run by content
//     key (singleflight at run granularity). Each run holds its own
//     event log.
//   - Journal: the optional durable copy of every log, JSON lines
//     appended to a single file so runs survive daemon restarts — on
//     reopen, runs that were mid-flight are marked failed rather than
//     silently lost, and every journaled partial result stays
//     replayable.
//   - Subscribe: replay-then-follow event delivery. A subscriber names
//     the last sequence number it has seen and receives everything after
//     it — first the logged backlog, then live events — which is
//     exactly the contract SSE `Last-Event-ID` reconnection needs.
//
// Cancellation is cooperative: Cancel threads a context cancellation
// into the running job, which is expected to return promptly and thereby
// free its compute-pool slot.
package jobs

import (
	"time"

	"darksim/internal/report"
)

// State is a run's lifecycle phase.
type State string

// The run lifecycle: Queued and Running are live, the other three are
// terminal. Transitions only move forward: queued → running →
// done|failed, and cancelled can be entered from either live state.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event types: a state transition, a completed partial result, or the
// terminal result. The terminal "state" event for StateDone carries the
// full result tables, so a subscriber that replays from any point always
// ends with the complete result.
const (
	EventState = "state"
	EventPoint = "point"
)

// Event is one record of a run's history. Seq is 1-based and
// strictly increasing per run; it doubles as the SSE event id, so a
// subscriber can resume from any Seq it has seen.
type Event struct {
	Seq  int64     `json:"seq"`
	Type string    `json:"type"` // EventState | EventPoint
	Time time.Time `json:"time"`

	// State-event fields.
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	// Point-event fields: the fragment table plus completion progress
	// (Done points finished out of Total). State events after the first
	// point also carry the final Done/Total.
	Done  int           `json:"done,omitempty"`
	Total int           `json:"total,omitempty"`
	Table *report.Table `json:"table,omitempty"`

	// Tables is the terminal result, attached to the StateDone event.
	Tables []*report.Table `json:"tables,omitempty"`
}

// Meta is the immutable creation record of a run.
type Meta struct {
	ID      string            `json:"id"`
	Kind    string            `json:"kind"`  // e.g. "experiment", "scenario"
	Label   string            `json:"label"` // human-readable, e.g. "fig12"
	Key     string            `json:"key"`   // content key used for dedupe
	Params  map[string]string `json:"params,omitempty"`
	Created time.Time         `json:"created"`
}

// Run is a point-in-time snapshot of one run, rebuilt from Meta plus the
// event log.
type Run struct {
	Meta
	State    State           `json:"state"`
	Error    string          `json:"error,omitempty"`
	Done     int             `json:"points_done"`
	Total    int             `json:"points_total"`
	LastSeq  int64           `json:"last_seq"`
	Started  time.Time       `json:"started,omitzero"`
	Finished time.Time       `json:"finished,omitzero"`
	Tables   []*report.Table `json:"tables,omitempty"`
}

// apply folds one event into the snapshot.
func (r *Run) apply(ev Event) {
	r.LastSeq = ev.Seq
	if ev.Done > 0 {
		r.Done, r.Total = ev.Done, ev.Total
	}
	switch ev.Type {
	case EventState:
		r.State = ev.State
		r.Error = ev.Error
		switch {
		case ev.State == StateRunning:
			r.Started = ev.Time
		case ev.State.Terminal():
			r.Finished = ev.Time
			r.Tables = ev.Tables
		}
	}
}

// snapshotOf rebuilds a Run from its creation record and event history.
func snapshotOf(meta Meta, events []Event) Run {
	r := Run{Meta: meta, State: StateQueued}
	for _, ev := range events {
		r.apply(ev)
	}
	return r
}
