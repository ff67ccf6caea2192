package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"darksim/internal/jobs"
	"darksim/internal/report"
)

// fakeDaemon is a minimal darksimd stand-in: accepts one run submission
// and serves its canned event log over SSE, honoring Last-Event-ID. When
// dropAfter > 0, the first events connection is severed after that many
// frames, forcing the client to reconnect with its resume id.
type fakeDaemon struct {
	t         *testing.T
	events    []jobs.Event
	dropAfter int
	conns     atomic.Int64
	resumes   atomic.Int64 // connections that carried Last-Event-ID
}

func (d *fakeDaemon) server() *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req runSubmission
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		resp := submittedRun{}
		resp.ID = "r1"
		resp.State = jobs.StateQueued
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v1/runs/r1/events", func(w http.ResponseWriter, r *http.Request) {
		conn := d.conns.Add(1)
		after := int64(0)
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			d.resumes.Add(1)
			fmt.Sscanf(v, "%d", &after)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		sent := 0
		for _, ev := range d.events {
			if ev.Seq <= after {
				continue
			}
			if conn == 1 && d.dropAfter > 0 && sent == d.dropAfter {
				// Sever the stream mid-run (proxy hiccup, daemon pause).
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				d.t.Error(err)
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			sent++
		}
	})
	return httptest.NewServer(mux)
}

func runEvents(terminal jobs.State, errMsg string) []jobs.Event {
	tbl := &report.Table{Title: "frag", Columns: []string{"v"}, Rows: [][]string{{"1"}}}
	return []jobs.Event{
		{Seq: 1, Type: jobs.EventState, State: jobs.StateRunning},
		{Seq: 2, Type: jobs.EventPoint, Done: 1, Total: 2, Table: tbl},
		{Seq: 3, Type: jobs.EventPoint, Done: 2, Total: 2, Table: tbl},
		{Seq: 4, Type: jobs.EventState, State: terminal, Error: errMsg,
			Tables: []*report.Table{tbl}, Done: 2, Total: 2},
	}
}

func TestRunFollowStreamsToTerminalState(t *testing.T) {
	d := &fakeDaemon{t: t, events: runEvents(jobs.StateDone, "")}
	ts := d.server()
	defer ts.Close()

	var out bytes.Buffer
	err := runRun(context.Background(), testEnv("text", &out), []string{"-addr", ts.URL, "-follow", "fig12"})
	code := exitStatus(err)
	if err != nil || code != exitOK {
		t.Fatalf("runRun = code %d, err %v\noutput:\n%s", code, err, out.String())
	}
	for _, want := range []string{"run r1", "point 1/2", "point 2/2", "state: done"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if d.resumes.Load() != 0 {
		t.Errorf("unbroken stream reconnected %d times", d.resumes.Load())
	}
}

func TestRunFollowReconnectsWithLastEventID(t *testing.T) {
	d := &fakeDaemon{t: t, events: runEvents(jobs.StateDone, ""), dropAfter: 2}
	ts := d.server()
	defer ts.Close()

	var out bytes.Buffer
	err := runRun(context.Background(), testEnv("text", &out), []string{"-addr", ts.URL, "-follow", "fig12"})
	code := exitStatus(err)
	if err != nil || code != exitOK {
		t.Fatalf("runRun after drop = code %d, err %v\noutput:\n%s", code, err, out.String())
	}
	if d.conns.Load() < 2 || d.resumes.Load() < 1 {
		t.Fatalf("conns %d, resumes %d: client did not reconnect with Last-Event-ID",
			d.conns.Load(), d.resumes.Load())
	}
	// No event is duplicated across the reconnect.
	if n := strings.Count(out.String(), "point 1/2"); n != 1 {
		t.Errorf("point 1 printed %d times across reconnect, want once", n)
	}
	if !strings.Contains(out.String(), "state: done") {
		t.Errorf("terminal state missing after reconnect:\n%s", out.String())
	}
}

func TestRunFollowExitCodes(t *testing.T) {
	cases := []struct {
		state jobs.State
		code  int
	}{
		{jobs.StateDone, exitOK},
		{jobs.StateFailed, exitFailed},
		{jobs.StateCancelled, exitCancelled},
	}
	for _, c := range cases {
		d := &fakeDaemon{t: t, events: runEvents(c.state, "boom")}
		ts := d.server()
		var out bytes.Buffer
		err := runRun(context.Background(), testEnv("text", &out), []string{"-addr", ts.URL, "-follow", "fig12"})
		code := exitStatus(err)
		ts.Close()
		if code != c.code {
			t.Errorf("%s: code %d err %v, want %d", c.state, code, err, c.code)
		}
		// A done run returns no error; a failed or cancelled one returns
		// an error naming the run and its terminal state, so a broken
		// stream (also exit 1) cannot pass for a followed failure.
		if c.state == jobs.StateDone {
			if err != nil {
				t.Errorf("%s: err %v, want nil", c.state, err)
			}
			continue
		}
		if want := "run r1 " + string(c.state); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want one naming %q", c.state, err, want)
		}
		var ee *exitError
		if isExit := errors.As(err, &ee); isExit != (c.state == jobs.StateCancelled) {
			t.Errorf("%s: errors.As(*exitError) = %v, want %v", c.state, isExit, c.state == jobs.StateCancelled)
		}
	}
}

func TestRunWithoutFollowSubmitsAndReturns(t *testing.T) {
	d := &fakeDaemon{t: t, events: runEvents(jobs.StateDone, "")}
	ts := d.server()
	defer ts.Close()

	var out bytes.Buffer
	err := runRun(context.Background(), testEnv("text", &out), []string{"-addr", ts.URL, "fig12"})
	code := exitStatus(err)
	if err != nil || code != exitOK {
		t.Fatalf("runRun = code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "run r1: queued") {
		t.Errorf("submission output missing run id/state:\n%s", out.String())
	}
	if d.conns.Load() != 0 {
		t.Errorf("non-follow submission opened %d event streams", d.conns.Load())
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := runRun(context.Background(), testEnv("text", &out), nil); exitStatus(err) != exitUsage {
		t.Errorf("no args = err %v, want usage failure", err)
	}
	if err := runRun(context.Background(), testEnv("text", &out), []string{"-spec", "x.json", "fig12"}); exitStatus(err) != exitUsage {
		t.Errorf("-spec plus experiment = err %v, want usage failure", err)
	}
}
