package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"darksim/internal/jobs"
	"darksim/internal/policy"
	"darksim/internal/report"
	"darksim/internal/scenario"
	"darksim/internal/tech"
)

const (
	sandboxClients  = 2
	sandboxDuration = 0.25 // simulated seconds per policy
	negativeControl = "boost-unsafe"
	// specRepeats of a pass's slots re-submit the spec that slot drew in
	// the previous pass.
	specRepeats = 2
)

// passSlots is the composition of every sandbox pass: how many policies
// each spec races (the negative control included) and its tune budget (0
// = no tuning). Only the order, scenarios, policies and tune seeds are
// seeded, so the mix is the same whatever the seed.
var passSlots = []struct{ policies, budget int }{
	{3, 0}, {3, 0}, {4, 0}, {4, 0}, {5, 0}, {5, 0}, {6, 0}, {3, 3}, {4, 4}, {5, 3},
}

// safePolicies pass every standard assertion on every sandbox scenario;
// tdpmap is left out because it fails on the pack by design (the paper's
// Observation 1), and patterned fails on the asymmetric pack.
var safePolicies = []string{"constant", "boost", "dsrem", "darkgates", "patterned"}

// tunable lists the safe policies the tuner accepts.
var tunable = map[string]bool{"boost": true, "dsrem": true, "darkgates": true}

// sandboxScenario is one workload a spec may race on.
type sandboxScenario struct {
	pack string
	spec *scenario.Spec
	// noPatterned excludes the patterned policy (it fails here).
	noPatterned bool
}

// sandboxScenarios are the pack scenarios plus generated symmetric chips
// hot enough that the unsafe negative control trips the assertions.
func sandboxScenarios() []sandboxScenario {
	out := []sandboxScenario{
		{pack: scenario.PackSymmetric},
		{pack: scenario.PackAsymmetric, noPatterned: true},
		{pack: scenario.PackMultiInstancing},
	}
	for _, node := range []tech.Node{tech.Node16, tech.Node11} {
		for _, app := range []string{"x264", "swaptions"} {
			for _, tdp := range []float64{185, 200} {
				s := scenario.SymmetricSpec(node, app, tdp)
				out = append(out, sandboxScenario{spec: &s})
			}
		}
	}
	return out
}

// runSpec is one generated sandbox submission.
type runSpec struct {
	spec   policy.Spec
	body   []byte // the POST /v1/runs body
	label  string
	repeat bool
}

// specGen draws the seeded sandbox specs.
type specGen struct {
	rng       *rand.Rand
	scenarios []sandboxScenario
	deck      []sandboxScenario // scenarios still to deal before reshuffling
	last      []runSpec         // the previous pass, by slot
}

func newSpecGen(rng *rand.Rand) *specGen {
	return &specGen{rng: rng, scenarios: sandboxScenarios()}
}

// pass draws one pass of specs, one per passSlots entry, in seeded
// order. Scenarios are dealt from a shuffled deck so each appears equally
// often.
func (g *specGen) pass() []runSpec {
	repeat := map[int]bool{}
	if g.last != nil {
		for _, i := range g.rng.Perm(len(passSlots))[:specRepeats] {
			repeat[i] = true
		}
	}
	specs := make([]runSpec, len(passSlots))
	for i, slot := range passSlots {
		if repeat[i] {
			specs[i] = g.last[i]
			specs[i].repeat = true
			continue
		}
		specs[i] = g.draw(slot.policies, slot.budget)
	}
	g.last = specs
	out := append([]runSpec(nil), specs...)
	g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// draw builds a spec racing n policies, the negative control included,
// with a seeded tune of one of them when budget > 0.
func (g *specGen) draw(n, budget int) runSpec {
	if len(g.deck) == 0 {
		g.deck = append([]sandboxScenario(nil), g.scenarios...)
		g.rng.Shuffle(len(g.deck), func(a, b int) { g.deck[a], g.deck[b] = g.deck[b], g.deck[a] })
	}
	sc := g.deck[0]
	g.deck = g.deck[1:]
	var pool []string
	for _, p := range safePolicies {
		if p != "patterned" || !sc.noPatterned {
			pool = append(pool, p)
		}
	}
	g.rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	spec := policy.Spec{Pack: sc.pack, Scenario: sc.spec, DurationS: sandboxDuration}
	if budget > 0 {
		// The tune target leads; the rest of the pool follows.
		for i, p := range pool {
			if tunable[p] {
				pool[0], pool[i] = pool[i], pool[0]
				break
			}
		}
		spec.Tune = pool[0]
		spec.Seed = int64(1 + g.rng.IntN(3))
		spec.Budget = budget
	}
	// The asymmetric pack has one safe policy fewer.
	k := min(n-1, len(pool))
	names := append(pool[:k:k], negativeControl)
	g.rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
	for _, name := range names {
		spec.Policies = append(spec.Policies, policy.PolicyConfig{Name: name})
	}
	body, err := json.Marshal(map[string]policy.Spec{"policy": spec})
	if err != nil {
		panic(err) // a Spec holds only plain data
	}
	where := sc.pack
	if where == "" {
		where = fmt.Sprintf("symmetric %d nm %s TDP %.0f W", sc.spec.NodeNM, sc.spec.Apps[0].App, sc.spec.TDPW)
	}
	label := fmt.Sprintf("%s: policies=%s", where, strings.Join(names, ","))
	if spec.Tune != "" {
		label += fmt.Sprintf(" tune=%s seed=%d budget=%d", spec.Tune, spec.Seed, spec.Budget)
	}
	return runSpec{spec: spec, body: body, label: label}
}

// runOutcome is one followed run as a client saw it.
type runOutcome struct {
	id                string
	deduped           bool
	latMS, firstMS    float64
	events            int
	tables            []byte // terminal tables as JSON
	violations        int    // total across the frontier
	controlViolations int
}

// followRun submits a spec and follows its SSE stream to the terminal
// event.
func followRun(s *server, rs runSpec) (runOutcome, error) {
	var out runOutcome
	t0 := time.Now()
	r, err := s.do(http.MethodPost, "/v1/runs", rs.body)
	if err != nil {
		return out, err
	}
	if r.status != http.StatusAccepted {
		return out, fmt.Errorf("submit: status %d: %.200s", r.status, r.body)
	}
	var sub struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(r.body, &sub); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	out.id, out.deduped = sub.ID, sub.Deduped
	resp, err := s.client.Get(s.base + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return out, fmt.Errorf("events: %w", err)
		}
		out.events++
		if ev.Type == jobs.EventPoint && out.firstMS == 0 {
			out.firstMS = msSince(t0)
		}
		if ev.Type == jobs.EventState && ev.State.Terminal() {
			out.latMS = msSince(t0)
			if ev.State != jobs.StateDone {
				return out, fmt.Errorf("run %s ended %s: %s", sub.ID, ev.State, ev.Error)
			}
			if out.firstMS == 0 {
				return out, fmt.Errorf("run %s: no point event before the end", sub.ID)
			}
			if out.tables, err = json.Marshal(ev.Tables); err != nil {
				return out, err
			}
			return out, checkFrontier(rs, ev.Tables, &out)
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, fmt.Errorf("run %s: stream ended before a terminal event", sub.ID)
}

var failVerdict = regexp.MustCompile(`^FAIL \((\d+)\)$`)

// checkFrontier requires one frontier row per raced policy (plus the
// tuned variant): the negative control caught, every other policy
// passing.
func checkFrontier(rs runSpec, tables []*report.Table, out *runOutcome) error {
	if len(tables) == 0 {
		return fmt.Errorf("no result tables")
	}
	front := tables[0]
	want := len(rs.spec.Policies)
	if rs.spec.Tune != "" {
		want++
	}
	if len(front.Rows) != want {
		return fmt.Errorf("frontier has %d rows, want %d", len(front.Rows), want)
	}
	for _, row := range front.Rows {
		name, verdict := row[0], row[len(row)-1]
		m := failVerdict.FindStringSubmatch(verdict)
		if m != nil {
			n, _ := strconv.Atoi(m[1])
			out.violations += n
			if name == negativeControl {
				out.controlViolations = n
			}
		}
		switch {
		case name == negativeControl && m == nil:
			return fmt.Errorf("negative control %s not caught: %q", name, verdict)
		case name != negativeControl && verdict != "pass":
			return fmt.Errorf("policy %s: %q", name, verdict)
		}
	}
	return nil
}

// sandboxStats accumulates a sandbox load run.
type sandboxStats struct {
	mu                       sync.Mutex
	latMS, firstMS           []float64
	attempted, failed        int
	tunes, repeats, deduped  int
	policies                 int
	violations, controlViols int
	events                   int
	ids                      []string
	specs                    []string
	errs                     []string
	tablesByBody             map[string][32]byte // SHA-256 of a spec's result tables
}

func newSandboxStats() *sandboxStats {
	return &sandboxStats{tablesByBody: map[string][32]byte{}}
}

func (st *sandboxStats) record(rs runSpec, out runOutcome, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.specs = append(st.specs, rs.label)
	st.policies += len(rs.spec.Policies)
	if rs.spec.Tune != "" {
		st.tunes++
	}
	if rs.repeat {
		st.repeats++
	}
	if out.deduped {
		st.deduped++
	}
	if err == nil {
		// A repeated spec must reproduce its earlier result byte for
		// byte, tuning record included.
		sum := sha256.Sum256(out.tables)
		if prev, ok := st.tablesByBody[string(rs.body)]; ok && prev != sum {
			err = fmt.Errorf("repeat of %q: result differs from the earlier run", rs.label)
		}
		st.tablesByBody[string(rs.body)] = sum
	}
	if err != nil {
		st.failed++
		if len(st.errs) < 10 {
			st.errs = append(st.errs, err.Error())
		}
		return
	}
	st.latMS = append(st.latMS, out.latMS)
	st.firstMS = append(st.firstMS, out.firstMS)
	st.violations += out.violations
	st.controlViols += out.controlViolations
	st.events += out.events
	st.ids = append(st.ids, out.id)
}

// sandboxLoad drives passes of len(passSlots) submissions until more
// reports false, and returns each pass's wall time (ms) and run rate.
func sandboxLoad(s *server, gen *specGen, st *sandboxStats, tr *tracer, parent int, more func(pass int) bool) (walls, rates []float64) {
	for pass := 0; more(pass); pass++ {
		specs := gen.pass()
		t0 := time.Now()
		closedLoop(sandboxClients, specs, func(rs runSpec) {
			id := tr.begin(parent, "jobs.follow")
			out, err := followRun(s, rs)
			tr.end(id, map[string]float64{"events": float64(out.events), "first_point_ms": out.firstMS})
			st.record(rs, out, err)
		})
		walls = append(walls, msSince(t0))
		rates = append(rates, float64(len(specs))/(walls[len(walls)-1]/1000))
	}
	return walls, rates
}

func (st *sandboxStats) props() []string {
	out := []string{
		fmt.Sprintf("runs=%d clients=%d (closed loop) pass=%d runs duration_s=%g per policy",
			st.attempted, sandboxClients, len(passSlots), sandboxDuration),
		fmt.Sprintf("policies_per_spec_mean=%.2f tuned_specs=%d repeated_specs=%d deduped_submissions=%d violations=%d negative_control_violations=%d",
			float64(st.policies)/float64(max(st.attempted, 1)), st.tunes, st.repeats, st.deduped, st.violations, st.controlViols),
	}
	for i, s := range st.specs {
		out = append(out, fmt.Sprintf("spec %d: %s", i+1, s))
	}
	return out
}

// runSandbox is the untraced sandbox workload.
func runSandbox(rng *rand.Rand, seconds float64, out *workloadResult) error {
	srv, setups, err := setupRepeated()
	if err != nil {
		return err
	}
	gen := newSpecGen(rng)
	st := newSandboxStats()
	heap := startHeapSampler(heapEvery)
	start := time.Now()
	walls, rates := sandboxLoad(srv, gen, st, nil, 0, func(int) bool { return time.Since(start).Seconds() < seconds })
	window := time.Since(start).Seconds()
	peak, heapSamples := heap.finish()
	if err := srv.close(); err != nil {
		return err
	}
	out.attempted, out.failed = st.attempted, st.failed
	out.notes = append(out.notes, st.errs...)
	if st.violations != st.controlViols {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("violations %d != negative-control violations %d", st.violations, st.controlViols))
	}
	out.props = append(out.props, st.props()...)
	if len(st.latMS) == 0 {
		return fmt.Errorf("sandbox: no run passed its checks: %s", strings.Join(st.errs, "; "))
	}
	m := &out.metrics
	m.add("setup_s", "s", median(setups), setups)
	wallS := scale(walls, 1e-3)
	m.add("wall_s", "s", median(wallS), wallS)
	m.add("latency_p50_ms", "ms", median(st.latMS), st.latMS)
	m.add("latency_p90_ms", "ms", quantile(st.latMS, 0.9), st.latMS)
	m.add("latency_p99_ms", "ms", quantile(st.latMS, 0.99), st.latMS)
	m.add("first_point_ms", "ms", median(st.firstMS), st.firstMS)
	m.add("throughput_per_s", "1/s", float64(len(st.latMS))/window, rates)
	m.add("peak_heap_mb", "MiB", peak, heapSamples)
	return nil
}
