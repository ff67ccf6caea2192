package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is the optional durable copy of the run log: one append-only
// file of JSON lines, one line per creation record or event. It is
// write-only once open; the runs themselves hold their events in memory.
//
// The format is deliberately dumb — a self-describing record per line:
//
//	{"create":{"id":"r1","kind":"experiment",...}}
//	{"run":"r1","event":{"seq":1,"type":"state","state":"running",...}}
//
// A process killed mid-write leaves at most one torn final line.
// OpenJournal cuts it off (everything before it survives) and makes the
// file end in a newline, so the next record lands on its own line.
// Completed partial results are therefore never lost to a crash; only
// the record being written at the instant of death can be.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// err is sticky: after the first failed write (or Close) every
	// later write returns it, so the file never holds a record that
	// follows a torn one.
	err error

	// replayed is the history read at open, handed once to New.
	replayed []journalRun
}

// journalRun is one run's history as replayed from the file.
type journalRun struct {
	meta   Meta
	events []Event
}

// journalRecord is one JSON line of the journal.
type journalRecord struct {
	Create *Meta  `json:"create,omitempty"`
	Run    string `json:"run,omitempty"`
	Event  *Event `json:"event,omitempty"`
}

// OpenJournal opens (creating if absent) the run journal at path,
// replays its history for New and repairs a torn final line. A corrupt
// interior line, a duplicate creation record or an event for an unknown
// run is an error: the journal must not silently skip history.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open run journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replay reads every intact record and truncates the file after the
// last one. A malformed final line is the torn write of a crash and is
// dropped; a malformed line followed by another record means the file
// was edited, not interrupted, and is a hard error.
func (j *Journal) replay() error {
	// Read the file as it stands at open (a device such as /dev/full
	// reports size 0 and replays nothing).
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("jobs: reading run journal %s: %w", j.path, err)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(j.f, data); err != nil {
		return fmt.Errorf("jobs: reading run journal %s: %w", j.path, err)
	}
	index := make(map[string]int)
	var torn error
	end := 0 // offset just past the last intact record
	for line, off := 1, 0; off < len(data); line++ {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			n = len(data) - off
		}
		raw := bytes.TrimSpace(data[off : off+n])
		off += n + 1
		if len(raw) == 0 {
			continue
		}
		if torn != nil {
			return torn
		}
		var rec journalRecord
		err := json.Unmarshal(raw, &rec)
		switch {
		case err != nil:
			torn = fmt.Errorf("jobs: run journal %s line %d: %w", j.path, line, err)
			continue
		case rec.Create != nil:
			if _, ok := index[rec.Create.ID]; ok {
				return fmt.Errorf("jobs: run journal %s line %d: run %s already exists", j.path, line, rec.Create.ID)
			}
			index[rec.Create.ID] = len(j.replayed)
			j.replayed = append(j.replayed, journalRun{meta: *rec.Create})
		case rec.Run != "" && rec.Event != nil:
			i, ok := index[rec.Run]
			if !ok {
				return fmt.Errorf("jobs: run journal %s line %d: event for unknown run %s", j.path, line, rec.Run)
			}
			j.replayed[i].events = append(j.replayed[i].events, *rec.Event)
		default:
			torn = fmt.Errorf("jobs: run journal %s line %d: record has neither create nor event", j.path, line)
			continue
		}
		end = min(off, len(data))
	}
	if end < len(data) {
		if err := j.f.Truncate(int64(end)); err != nil {
			return fmt.Errorf("jobs: truncating torn tail of run journal %s: %w", j.path, err)
		}
	}
	if end > 0 && data[end-1] != '\n' {
		if _, err := j.f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("jobs: repairing run journal %s: %w", j.path, err)
		}
	}
	return nil
}

// take hands the replayed history to its one consumer.
func (j *Journal) take() []journalRun {
	if j == nil {
		return nil
	}
	runs := j.replayed
	j.replayed = nil
	return runs
}

// write appends one record with a single write. A nil journal keeps
// nothing and never fails.
func (j *Journal) write(rec journalRecord) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		j.err = fmt.Errorf("jobs: run journal %s: %w", j.path, err)
		return j.err
	}
	return nil
}

// Err returns the sticky error that refuses every later write (the first
// failed write, or Close), or nil while the journal accepts records.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the file; later writes fail. It is idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if j.err == nil {
		j.err = errors.New("jobs: run journal is closed")
	}
	return err
}
