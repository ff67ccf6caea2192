package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"darksim/internal/jobs"
	"darksim/internal/policy"
	"darksim/internal/progress"
	"darksim/internal/report"
	"darksim/internal/scenario"
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
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading run request: %w", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("run request exceeds %d bytes", maxSpecBytes))
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
	var kind, label, key string
	var params map[string]string
	var fn computeFn
	switch {
	case req.Experiment != "":
		kind, label = "experiment", req.Experiment
		key, params, fn, err = s.experimentCompute(req.Experiment, req.Duration)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, errUnknownExperiment) {
				status = http.StatusNotFound
			}
			writeError(w, status, err)
			return
		}
	case len(req.Scenario) > 0:
		if req.Duration != 0 {
			writeError(w, http.StatusBadRequest,
				errors.New("duration applies to experiment runs, not scenarios"))
			return
		}
		spec, perr := scenario.Parse(req.Scenario)
		if perr != nil {
			writeError(w, http.StatusBadRequest, perr)
			return
		}
		key, params, fn, err = scenarioCompute(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		kind, label = "scenario", spec.Name
		if label == "" {
			label = params["hash"][:12]
		}
	default:
		if req.Duration != 0 {
			writeError(w, http.StatusBadRequest,
				errors.New("duration applies to experiment runs, not policy specs (set duration_s in the spec)"))
			return
		}
		spec, perr := policy.Parse(req.Policy)
		if perr != nil {
			writeError(w, http.StatusBadRequest, perr)
			return
		}
		key, params, fn, err = policyCompute(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		kind, label = "policy", spec.Name
		if label == "" {
			label = params["hash"][:12]
		}
	}

	run, joined, err := s.runs.Submit(kind, label, key, params, s.runJob(key, label, params, fn))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.writeRetryError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrClosed):
		s.writeRetryError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, runResponse{Run: run, Deduped: joined})
}

// runJob adapts a compute closure into a jobs.Job: a progress sink on
// the context forwards each completed point to the run's event log, and
// a successful result is written through to the synchronous result cache
// so later GETs for the same key are served without recomputing. Runs
// never read that cache — a submission is an explicit request to compute.
func (s *Server) runJob(key, id string, params map[string]string, fn computeFn) jobs.Job {
	return func(ctx context.Context, emit jobs.EmitFunc) ([]*report.Table, error) {
		ctx = progress.With(ctx, func(p progress.Point) { emit(p.Table, p.Done, p.Total) })
		start := s.cfg.Now()
		tables, err := fn(ctx)
		if err != nil {
			return nil, err
		}
		s.cache.put(key, &Result{
			ID:         id,
			Params:     params,
			Tables:     tables,
			ComputedAt: start,
			ElapsedMS:  float64(s.cfg.Now().Sub(start)) / float64(time.Millisecond),
		})
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
// persisted backlog first, then live events, ending after the terminal
// event. Each frame's SSE id is the event's sequence number, so a client
// that reconnects with Last-Event-ID (or ?after=N) replays exactly what
// it missed, byte-identically — the store is append-only and the framing
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
	if errors.Is(err, jobs.ErrNotFound) || errors.Is(err, jobs.ErrNoRun) {
		writeError(w, http.StatusNotFound, fmt.Errorf("jobs: run not found: %s", r.PathValue("id")))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
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

// writeRetryError writes an error with a Retry-After hint so
// well-behaved clients back off instead of hammering a saturated or
// draining server.
func (s *Server) writeRetryError(w http.ResponseWriter, status int, err error) {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, status, err)
}
