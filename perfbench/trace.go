package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent 0 marks a root span.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e6 }

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	return id
}

// end closes span id, attaching counters to it.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	s.Attrs = attrs
}

// add records an already-measured interval, e.g. one reconstructed from
// a run's server-side timestamps.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: float64(start.Sub(t.origin).Nanoseconds()) / 1e6,
		End:   float64(end.Sub(t.origin).Nanoseconds()) / 1e6,
		Attrs: attrs,
	})
}

// spanStat aggregates the spans of one name. Self time is a span's
// duration minus the part of it covered by its children.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanStat{}
	var order []string
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += d
		st.SelfMS += d - covered(s, children[s.ID])
	}
	out := make([]spanStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how much of parent's interval the union of its
// children covers; concurrent children overlap and count once.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// printStats writes the per-name aggregate, largest self time first.
func printStats(w io.Writer, stats []spanStat) {
	s := append([]spanStat(nil), stats...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].SelfMS > s[j].SelfMS })
	fmt.Fprintf(w, "%-40s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range s {
		fmt.Fprintf(w, "%-40s %7d %12.3f %12.3f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
}

// traceFile is the JSON document a traced run writes out.
type traceFile struct {
	Machine  machine            `json:"machine"`
	Workload string             `json:"workload"`
	Overhead map[string]float64 `json:"overhead"`
	Stats    []spanStat         `json:"stats"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path string, m machine, workload string, overhead map[string]float64) error {
	t.mu.Lock()
	doc := traceFile{Machine: m, Workload: workload, Overhead: overhead, Spans: t.spans}
	t.mu.Unlock()
	doc.Stats = t.stats()
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
