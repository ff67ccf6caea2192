package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"darksim/internal/jobs"
)

// runSubmission mirrors the POST /v1/runs request body.
type runSubmission struct {
	Experiment string          `json:"experiment,omitempty"`
	Duration   float64         `json:"duration,omitempty"`
	Scenario   json.RawMessage `json:"scenario,omitempty"`
}

// submittedRun mirrors the POST /v1/runs response.
type submittedRun struct {
	jobs.Run
	Deduped bool `json:"deduped"`
}

// runRun submits a computation to a darksimd daemon as an asynchronous
// run and, with -follow, streams its events — rendering each partial
// result as it lands — until the run reaches a terminal state. The exit
// status (see exitStatus) reflects that state; misuse exits 2.
func runRun(ctx context.Context, e *env, args []string) error {
	fs, w := e.flags, e.out
	addr := fs.String("addr", "http://localhost:8080", "darksimd base URL")
	specFile := fs.String("spec", "", "JSON scenario spec file ('-' for stdin) to run instead of an experiment")
	duration := fs.Float64("duration", 0, "override the transient experiments' simulated duration in seconds (0 = default)")
	follow := fs.Bool("follow", false, "stream the run's events until it finishes; exit code reflects the terminal state")
	if err := fs.Parse(args); err != nil {
		return &exitError{exitUsage, err}
	}

	var sub runSubmission
	switch {
	case *specFile != "" && fs.NArg() != 0:
		fs.Usage()
		return &exitError{exitUsage, fmt.Errorf("run: -spec and an experiment name are mutually exclusive")}
	case *specFile != "":
		data, err := readSpecFile(*specFile)
		if err != nil {
			return err
		}
		sub.Scenario = data
	case fs.NArg() == 1:
		sub.Experiment = fs.Arg(0)
		sub.Duration = *duration
	default:
		fs.Usage()
		return &exitError{exitUsage, fmt.Errorf("run: exactly one experiment name (or -spec) is required")}
	}

	base := strings.TrimRight(*addr, "/")
	client := &http.Client{}
	run, err := submitRun(ctx, client, base, sub)
	if err != nil {
		return err
	}
	joined := ""
	if run.Deduped {
		joined = " (joined an identical in-flight run)"
	}
	fmt.Fprintf(w, "run %s: %s%s\n", run.ID, run.State, joined)
	if !*follow {
		return nil
	}
	state, err := followRun(ctx, client, base, run.ID, run.LastSeq, e.format, w)
	switch {
	case err != nil:
		return err
	case state == jobs.StateDone:
		return nil
	case state == jobs.StateCancelled:
		return &exitError{exitCancelled, fmt.Errorf("run %s %s", run.ID, state)}
	default:
		return fmt.Errorf("run %s %s", run.ID, state)
	}
}

// submitRun POSTs the submission and decodes the accepted run snapshot.
func submitRun(ctx context.Context, client *http.Client, base string, sub runSubmission) (*submittedRun, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("run: submitting to %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("run: %s: %s", resp.Status, serverError(resp.Body))
	}
	var run submittedRun
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		return nil, fmt.Errorf("run: decoding response: %w", err)
	}
	return &run, nil
}

// followRun streams the run's SSE feed to a terminal state, reconnecting
// with the last seen event id after a dropped connection, exactly as a
// browser EventSource would.
func followRun(ctx context.Context, client *http.Client, base, id string, lastSeq int64, format string, w io.Writer) (jobs.State, error) {
	stalls := 0
	for {
		state, seq, err := streamRun(ctx, client, base, id, lastSeq, format, w)
		if state.Terminal() {
			return state, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if seq > lastSeq {
			stalls = 0
		} else if stalls++; stalls > 5 {
			if err == nil {
				err = fmt.Errorf("run: stream of %s ended %d times with no progress past seq %d", id, stalls, lastSeq)
			}
			return "", err
		}
		lastSeq = seq
		select {
		case <-time.After(500 * time.Millisecond):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// streamRun consumes one SSE connection, printing events as they
// arrive. It returns the terminal state if one was delivered, and the
// last event sequence seen (the resume point for a reconnect).
func streamRun(ctx context.Context, client *http.Client, base, id string, lastSeq int64, format string, w io.Writer) (jobs.State, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return "", lastSeq, err
	}
	if lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastSeq, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", lastSeq, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", lastSeq, fmt.Errorf("run: events of %s: %s: %s", id, resp.Status, serverError(resp.Body))
	}
	sc := bufio.NewScanner(resp.Body)
	// Terminal events carry full result tables on one data line.
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = append([]byte(nil), line[len("data: "):]...)
		case line == "" && data != nil:
			var ev jobs.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return "", lastSeq, fmt.Errorf("run: undecodable event: %w", err)
			}
			data = nil
			lastSeq = ev.Seq
			if err := printEvent(ev, format, w); err != nil {
				return "", lastSeq, err
			}
			if ev.Type == jobs.EventState && ev.State.Terminal() {
				return ev.State, lastSeq, nil
			}
		}
	}
	return "", lastSeq, sc.Err()
}

// printEvent renders one run event: JSON passes the event through
// verbatim; text renders partial-result tables as they land and one
// status line per state change.
func printEvent(ev jobs.Event, format string, w io.Writer) error {
	if format == "json" {
		enc := json.NewEncoder(w)
		return enc.Encode(ev)
	}
	switch ev.Type {
	case jobs.EventPoint:
		if ev.Table != nil {
			if err := ev.Table.Render(w); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "point %d/%d\n\n", ev.Done, ev.Total)
	case jobs.EventState:
		if ev.Error != "" {
			fmt.Fprintf(w, "state: %s (%s)\n", ev.State, ev.Error)
		} else {
			fmt.Fprintf(w, "state: %s\n", ev.State)
		}
		if ev.State == jobs.StateDone {
			fmt.Fprintln(w)
			return tableText(ev.Tables)(w)
		}
	}
	return nil
}

// serverError extracts the {"error": ...} payload of a failed response.
func serverError(r io.Reader) string {
	body, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return err.Error()
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}
