package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"darksim/internal/jobs"
	"darksim/internal/report"
)

// runRequest is the POST /v1/runs body: exactly one of Experiment (with
// an optional Duration override for the transient figures), Scenario
// (an inline spec, as POST /v1/scenarios accepts) or Policy (a sandbox
// spec, as POST /v1/policies accepts — the natural home for long tuning
// runs, whose per-policy frontier fragments stream as run events).
type runRequest struct {
	Experiment string          `json:"experiment,omitempty"`
	Duration   float64         `json:"duration,omitempty"`
	Scenario   json.RawMessage `json:"scenario,omitempty"`
	Policy     json.RawMessage `json:"policy,omitempty"`
}

// runResponse is a run snapshot plus whether this submission joined an
// already-live run for the same content key instead of starting one.
type runResponse struct {
	jobs.Run
	Deduped bool `json:"deduped"`
}

// handleRunSubmit accepts a computation for asynchronous execution and
// returns 202 with the run snapshot immediately. Submissions dedupe on
// the same content key the synchronous cache uses, so two concurrent
// identical POSTs share one RunID and one computation. A full queue is
// backpressure: 429 with a Retry-After hint.
func (s *Server) handleRunSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "run request")
	if !ok {
		return
	}
	var req runRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing run request: %w", err))
		return
	}
	targets := 0
	for _, set := range []bool{req.Experiment != "", len(req.Scenario) > 0, len(req.Policy) > 0} {
		if set {
			targets++
		}
	}
	if targets != 1 {
		writeError(w, http.StatusBadRequest,
			errors.New(`run request must name exactly one of "experiment", "scenario" or "policy"`))
		return
	}
	var (
		kind string
		c    computation
		err  error
	)
	switch {
	case req.Experiment != "":
		kind = "experiment"
		c, err = s.experimentCompute(req.Experiment, req.Duration)
	case req.Duration != 0 && len(req.Scenario) > 0:
		err = errors.New("duration applies to experiment runs, not scenarios")
	case req.Duration != 0:
		err = errors.New("duration applies to experiment runs, not policy specs (set duration_s in the spec)")
	case len(req.Scenario) > 0:
		kind = "scenario"
		c, err = parseScenario(req.Scenario)
	default:
		kind = "policy"
		c, err = parsePolicy(req.Policy)
	}
	if err != nil {
		writeRequestError(w, err)
		return
	}

	run, joined, err := s.runs.Submit(kind, c.label, c.key, c.params, s.runJob(c))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeRetryError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrClosed):
		writeRetryError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, runResponse{Run: run, Deduped: joined})
}

// runJob wraps c's closure so a successful result is written through to
// the synchronous result cache, and later requests for the same key are
// served without recomputing. Runs never read that cache — a submission
// is an explicit request to compute.
func (s *Server) runJob(c computation) jobs.Job {
	return func(ctx context.Context) ([]*report.Table, error) {
		start := s.cfg.Now()
		tables, err := c.fn(ctx)
		if err != nil {
			return nil, err
		}
		s.cache.Put(c.key, newResult(c, tables, start, s.cfg.Now().Sub(start)))
		return tables, nil
	}
}

// handleRunList lists every known run, oldest first; ?kind= restricts
// the listing to one submission kind (experiment, scenario, policy).
func (s *Server) handleRunList(w http.ResponseWriter, r *http.Request) {
	if err := allowParams(r, "kind"); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.runs.ListKind(r.URL.Query().Get("kind")))
}

// handleRunGet returns one run's snapshot (terminal snapshots include
// the full result tables).
func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	if err := allowParams(r); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	run, ok := s.runs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", jobs.ErrNotFound, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, run)
}

// handleRunCancel requests cooperative cancellation: queued runs are
// cancelled immediately, running runs when their job observes the
// context. The response is the snapshot after the request was applied.
func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request) {
	run, err := s.runs.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", err, r.PathValue("id")))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, run)
}

// handleRunEvents streams a run's event log as Server-Sent Events: the
// logged backlog first, then live events, ending after the terminal
// event. Each frame's SSE id is the event's sequence number, so a client
// that reconnects with Last-Event-ID (or ?after=N) replays exactly what
// it missed, byte-identically — the log is append-only and the framing
// deterministic.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	if err := allowParams(r, "after"); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	after := int64(0)
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("after")
	}
	if v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("invalid resume sequence %q: want a non-negative integer", v))
			return
		}
		after = n
	}
	replay, live, stop, err := s.runs.Subscribe(r.PathValue("id"), after)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", err, r.PathValue("id")))
		return
	}
	defer stop()
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		if writeSSE(w, ev) != nil {
			return
		}
	}
	if err := rc.Flush(); err != nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Terminal event delivered (or the subscriber fell too far
				// behind and was disconnected; it reconnects with its last
				// seen id).
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one run event: the sequence number as the SSE id (what
// a reconnecting client echoes back as Last-Event-ID), the run event
// type as the SSE event name, and the event's JSON as the data line.
func writeSSE(w io.Writer, ev jobs.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// retryAfterS is the Retry-After hint, in seconds, of 429 and drain 503
// responses.
const retryAfterS = 5

// writeRetryError writes an error with a Retry-After hint so
// well-behaved clients back off instead of hammering a saturated or
// draining server.
func writeRetryError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	writeError(w, status, err)
}
