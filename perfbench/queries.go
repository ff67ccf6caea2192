package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/report"
	"darksim/internal/scenario"
	"darksim/internal/tech"
	"darksim/internal/thermal"
	"darksim/internal/tsp"
)

// query is one generated request of the queries workload.
type query struct {
	tsp    bool // GET /v1/tsp, else POST /v1/scenarios
	path   string
	body   []byte
	node   tech.Node
	cores  int
	active int
	spec   scenario.Spec
	// Input properties.
	fresh  bool // core count no earlier request used: pays a platform and influence build
	repeat bool // a key issued earlier, to hit the result cache
	pair   bool // sent twice concurrently, to exercise coalescing
}

// opClass is the kind of one queries operation.
type opClass int

const (
	classPair       opClass = iota // a new key on a large warm platform, sent twice at once
	classFresh                     // a TSP query on a platform nothing used before
	classRepeat                    // one of the last repeatWindow keys again
	classTSP                       // a new TSP key on a warm platform
	classSymmetric                 // a symmetric paper-platform scenario
	classAsymmetric                // a shelf-packed big.LITTLE scenario
)

// passMix is the composition of every pass; only the order and each
// operation's parameters are seeded, so the mix is the same whatever the
// seed: 0.4% never-seen platforms, 30% repeats, 4.7% coalescing pairs,
// 33% TSP on the warm set (12 per platform), 32% scenarios.
var passMix = []struct {
	class opClass
	n     int
}{{classPair, 12}, {classFresh, 1}, {classRepeat, 77}, {classTSP, 84}, {classSymmetric, 50}, {classAsymmetric, 32}}

const (
	// repeatWindow is how far back a repeat reaches, in unique keys;
	// below the result cache's 64 entries so repeats hit.
	repeatWindow = 40
	passOps      = 256
	queryClients = 2
)

var (
	paperNodes = []tech.Node{tech.Node22, tech.Node16, tech.Node11, tech.Node8}
	mixApps    = []string{"x264", "blackscholes", "bodytrack", "ferret", "canneal", "dedup", "swaptions"}
)

// queryGen draws the seeded request mix.
type queryGen struct {
	rng    *rand.Rand
	issued []query       // the last repeatWindow unique keys
	fresh  []platformKey // never-seen platforms in draw order
}

// newQueryGen prepares the never-seen platforms: core counts of 120–480
// not in the warm set, visited with a stride near the golden ratio from a
// seeded start, so any prefix of the draw spreads evenly over the sizes;
// each lap over the sizes moves to the next paper node.
func newQueryGen(rng *rand.Rand) *queryGen {
	used := map[int]bool{}
	for _, k := range warmPlatforms {
		used[k.cores] = true
	}
	var sizes []int
	for c := 120; c <= 480; c += 4 {
		if !used[c] {
			sizes = append(sizes, c)
		}
	}
	n := len(sizes)
	stride := int(0.618*float64(n)) | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	start, node := rng.IntN(n), rng.IntN(len(paperNodes))
	g := &queryGen{rng: rng}
	for lap := range paperNodes {
		for i := range n {
			g.fresh = append(g.fresh, platformKey{paperNodes[(node+lap)%len(paperNodes)], sizes[(start+i*stride)%n]})
		}
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *queryGen) tspQuery(node tech.Node, cores, active int) query {
	return query{
		tsp: true, node: node, cores: cores, active: active,
		path: fmt.Sprintf("/v1/tsp?node=%d&cores=%d&active=%d", int(node), cores, active),
	}
}

func (g *queryGen) scenarioQuery(spec scenario.Spec) query {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a Spec holds only plain data
	}
	return query{path: "/v1/scenarios", body: body, spec: spec}
}

// spec draws a scenario: a symmetric paper-platform grid, or an
// asymmetric big.LITTLE chip shelf-packed on the 16 nm or 11 nm node.
func (g *queryGen) spec(symmetric bool) scenario.Spec {
	tdp := float64(80 + 10*g.rng.IntN(17))
	app := mixApps[g.rng.IntN(len(mixApps))]
	if symmetric {
		return scenario.SymmetricSpec(paperNodes[g.rng.IntN(len(paperNodes))], app, tdp)
	}
	big := []int{2, 4, 8}[g.rng.IntN(3)]
	little := 36 + 12*g.rng.IntN(5)
	node := []tech.Node{tech.Node16, tech.Node11}[g.rng.IntN(2)]
	return scenario.Spec{
		NodeNM: int(node),
		TDPW:   tdp,
		CoreTypes: []scenario.CoreType{
			{Name: "big", Count: big, AreaScale: 4, PowerScale: 2.5, PerfScale: 1.8},
			{Name: "little", Count: little},
		},
		Apps: []scenario.AppMix{
			{App: app, CoreType: "big", Instances: big, Threads: 1},
			{App: app, CoreType: "little", Instances: little / 8},
		},
	}
}

// pass draws one pass: passMix's operations in seeded order.
func (g *queryGen) pass() []query {
	var classes []opClass
	for _, m := range passMix {
		for range m.n {
			classes = append(classes, m.class)
		}
	}
	g.rng.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
	ops := make([]query, len(classes))
	tsp := 0 // spreads classTSP evenly over the warm platforms
	for i, c := range classes {
		if c == classRepeat && len(g.issued) > 0 {
			q := g.issued[g.rng.IntN(len(g.issued))]
			q.repeat, q.fresh, q.pair = true, false, false
			ops[i] = q
			continue
		}
		var q query
		switch c {
		case classPair:
			cores := []int{576, 1024}[g.rng.IntN(2)]
			q = g.tspQuery(tech.Node16, cores, 1+g.rng.IntN(cores))
			q.pair = true
		case classFresh:
			k := g.fresh[0]
			g.fresh = g.fresh[1:]
			q = g.tspQuery(k.node, k.cores, 1+g.rng.IntN(k.cores))
			q.fresh = true
		case classSymmetric, classAsymmetric:
			q = g.scenarioQuery(g.spec(c == classSymmetric))
		default: // classTSP, or a repeat before any key was issued
			k := warmPlatforms[tsp%len(warmPlatforms)]
			tsp++
			q = g.tspQuery(k.node, k.cores, 1+g.rng.IntN(k.cores))
		}
		ops[i] = q
		g.issued = append(g.issued, q)
		if len(g.issued) > repeatWindow {
			g.issued = g.issued[1:]
		}
	}
	return ops
}

// checkResponse validates one response body: a finite, positive TSP for
// the requested active count, or a scenario whose TDP fill stays within
// the TDP and whose thermal ground truth is finite and positive.
func checkResponse(q query, r response) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", q.path, r.status, r.body)
	}
	switch r.cache {
	case "hit", "miss", "coalesced":
	default:
		return fmt.Errorf("%s: X-Darksim-Cache %q", q.path, r.cache)
	}
	var res struct {
		Tables []*report.Table `json:"tables"`
	}
	if err := json.Unmarshal(r.body, &res); err != nil {
		return fmt.Errorf("%s: %w", q.path, err)
	}
	if q.tsp {
		if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 1 || len(res.Tables[0].Rows[0]) != 3 {
			return fmt.Errorf("%s: unexpected table shape", q.path)
		}
		row := res.Tables[0].Rows[0]
		v, err := strconv.ParseFloat(row[1], 64)
		if row[0] != strconv.Itoa(q.active) || err != nil || !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: bad TSP row %q", q.path, row)
		}
		return nil
	}
	if len(res.Tables) != 3 {
		return fmt.Errorf("scenario: %d tables, want 3", len(res.Tables))
	}
	fill, sum := res.Tables[1], res.Tables[2]
	total := 0.0
	for _, row := range fill.Rows {
		if len(row) != len(fill.Columns) || len(row) < 9 {
			return fmt.Errorf("scenario: bad fill row %q", row)
		}
		w, err := strconv.ParseFloat(row[8], 64)
		if err != nil || w < 0 {
			return fmt.Errorf("scenario: bad fill power %q", row[8])
		}
		total += w
	}
	// Each row's power is printed to 0.1 W.
	if total > q.spec.TDPW+0.05*float64(len(fill.Rows))+1e-9 {
		return fmt.Errorf("scenario: fill power %.1f W exceeds TDP %.0f W", total, q.spec.TDPW)
	}
	if len(sum.Rows) != 1 || len(sum.Rows[0]) < 5 {
		return fmt.Errorf("scenario: bad summary rows %q", sum.Rows)
	}
	p, err := strconv.ParseFloat(sum.Rows[0][4], 64)
	if err != nil || !(p > 0) || math.IsInf(p, 0) {
		return fmt.Errorf("scenario: bad ground-truth power %q", sum.Rows[0][4])
	}
	return nil
}

// verifyDirect recomputes a served response with direct tsp/scenario
// calls and requires the same numbers.
func verifyDirect(ctx context.Context, q query, body []byte) error {
	var res struct {
		Tables []*report.Table `json:"tables"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if q.tsp {
		p, err := experiments.PlatformFor(q.node, q.cores)
		if err != nil {
			return err
		}
		calc, err := tsp.New(p.Thermal, p.TDTM)
		if err != nil {
			return err
		}
		budget, _, err := calc.WorstCase(ctx, q.active)
		if err != nil {
			return err
		}
		if got, want := res.Tables[0].Rows[0][1], fmt.Sprintf("%.3f", budget); got != want {
			return fmt.Errorf("%s: served TSP %s, direct %s", q.path, got, want)
		}
		return nil
	}
	sc, err := scenario.Compile(q.spec)
	if err != nil {
		return err
	}
	r, err := sc.Evaluate(ctx)
	if err != nil {
		return err
	}
	want, err := json.Marshal(r.Tables())
	if err != nil {
		return err
	}
	got, err := json.Marshal(res.Tables)
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("scenario %s: served tables differ from direct evaluation", sc.Hash[:12])
	}
	return nil
}

// queryStats accumulates a load run's observations.
type queryStats struct {
	mu                    sync.Mutex
	latMS, ttfbMS         []float64
	attempted, failed     int
	ops, fresh, repeat    int
	pairs, coalescedPairs int
	byCache               map[string]int
	errs                  []string
	samples               []sampledResponse
	keys                  map[platformKey]bool
}

type sampledResponse struct {
	q    query
	body []byte
}

// verifySamples bounds how many responses per kind are recomputed
// directly after the timed window.
const verifySamples = 8

func (st *queryStats) record(q query, rs []response, errs []error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ops++
	if q.fresh {
		st.fresh++
	}
	if q.repeat {
		st.repeat++
	}
	if q.tsp {
		st.keys[platformKey{q.node, q.cores}] = true
	}
	coalesced := false
	for i, r := range rs {
		st.attempted++
		err := errs[i]
		if err == nil {
			err = checkResponse(q, r)
		}
		if err != nil {
			st.failed++
			if len(st.errs) < 10 {
				st.errs = append(st.errs, err.Error())
			}
			continue
		}
		st.latMS = append(st.latMS, r.totalMS)
		st.ttfbMS = append(st.ttfbMS, r.ttfbMS)
		st.byCache[r.cache]++
		coalesced = coalesced || r.cache == "coalesced"
		kindCount := 0
		for _, s := range st.samples {
			if s.q.tsp == q.tsp {
				kindCount++
			}
		}
		if kindCount < verifySamples && r.cache == "miss" {
			st.samples = append(st.samples, sampledResponse{q, r.body})
		}
	}
	if q.pair {
		st.pairs++
		if coalesced {
			st.coalescedPairs++
		}
	}
}

// sendQuery issues one operation: a single request, or two identical
// requests at once for a pair.
func sendQuery(s *server, q query) ([]response, []error) {
	method := http.MethodGet
	if !q.tsp {
		method = http.MethodPost
	}
	n := 1
	if q.pair {
		n = 2
	}
	rs := make([]response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[i], errs[i] = s.do(method, q.path, q.body)
		}()
	}
	wg.Wait()
	return rs, errs
}

// closedLoop runs the items of one pass on `clients` goroutines, each
// taking the next item only when its previous one completed.
func closedLoop[T any](clients int, items []T, fn func(T)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				fn(items[i])
			}
		}()
	}
	wg.Wait()
}

// queryLoad drives passes of passOps operations against s until more
// reports false, and returns each pass's wall time (ms) and request
// rate (1/s).
func queryLoad(s *server, gen *queryGen, st *queryStats, tr *tracer, parent int, more func(pass int) bool) (walls, rates []float64) {
	for pass := 0; more(pass); pass++ {
		ops := gen.pass()
		requests := 0
		for _, q := range ops {
			requests++
			if q.pair {
				requests++
			}
		}
		t0 := time.Now()
		closedLoop(queryClients, ops, func(q query) {
			id := tr.begin(parent, "service.request")
			rs, errs := sendQuery(s, q)
			attrs := map[string]float64{"requests": float64(len(rs))}
			for _, r := range rs {
				attrs["cache_"+r.cache]++
			}
			tr.end(id, attrs)
			st.record(q, rs, errs)
		})
		walls = append(walls, msSince(t0))
		rates = append(rates, float64(requests)/(walls[len(walls)-1]/1000))
	}
	return walls, rates
}

func newQueryStats() *queryStats {
	return &queryStats{byCache: map[string]int{}, keys: map[platformKey]bool{}}
}

// verifyQuerySamples recomputes the sampled responses directly; any
// mismatch is a failed operation.
func verifyQuerySamples(ctx context.Context, st *queryStats) {
	for _, s := range st.samples {
		st.attempted++
		if err := verifyDirect(ctx, s.q, s.body); err != nil {
			st.failed++
			st.errs = append(st.errs, "direct check: "+err.Error())
		}
	}
}

// runQueries is the untraced queries workload.
func runQueries(ctx context.Context, rng *rand.Rand, seconds float64, out *workloadResult) error {
	srv, setups, err := setupRepeated()
	if err != nil {
		return err
	}
	gen := newQueryGen(rng)
	st := newQueryStats()
	infBefore := thermal.InfluenceCacheStats()
	heap := startHeapSampler(heapEvery)
	start := time.Now()
	walls, rates := queryLoad(srv, gen, st, nil, 0, func(int) bool { return time.Since(start).Seconds() < seconds })
	window := time.Since(start).Seconds()
	peak, heapSamples := heap.finish()
	infAfter := thermal.InfluenceCacheStats()
	platforms := experiments.PlatformCacheLen()
	if err := srv.close(); err != nil {
		return err
	}
	verifyQuerySamples(ctx, st)
	out.attempted, out.failed = st.attempted, st.failed
	out.notes = append(out.notes, st.errs...)
	out.props = append(out.props, st.props()...)
	out.props = append(out.props, fmt.Sprintf(
		"platform_cache_len_at_end=%d (no cap set, as in darksimd) influence_cache hits=%d misses=%d entries=%d",
		platforms, infAfter.Hits-infBefore.Hits, infAfter.Misses-infBefore.Misses, infAfter.Entries))
	if len(st.latMS) == 0 {
		return fmt.Errorf("queries: no request passed its checks: %s", strings.Join(st.errs, "; "))
	}
	m := &out.metrics
	m.add("setup_s", "s", median(setups), setups)
	wallS := scale(walls, 1e-3)
	m.add("wall_s", "s", median(wallS), wallS)
	m.add("latency_p50_ms", "ms", median(st.latMS), st.latMS)
	m.add("latency_p90_ms", "ms", quantile(st.latMS, 0.9), st.latMS)
	m.add("latency_p99_ms", "ms", quantile(st.latMS, 0.99), st.latMS)
	m.add("first_point_ms", "ms", median(st.ttfbMS), st.ttfbMS)
	m.add("throughput_per_s", "1/s", float64(st.attempted)/window, rates)
	m.add("peak_heap_mb", "MiB", peak, heapSamples)
	return nil
}

// props describes the inputs a load run actually sent.
func (st *queryStats) props() []string {
	share := func(n int) float64 { return float64(n) / float64(max(st.ops, 1)) }
	return []string{
		fmt.Sprintf("operations=%d requests=%d clients=%d (closed loop) pass=%d operations", st.ops, st.attempted, queryClients, passOps),
		fmt.Sprintf("never_seen_platform_share=%.4f repeated_key_share=%.4f pairs=%d coalesced_pairs=%d",
			share(st.fresh), share(st.repeat), st.pairs, st.coalescedPairs),
		fmt.Sprintf("X-Darksim-Cache hit=%d miss=%d coalesced=%d", st.byCache["hit"], st.byCache["miss"], st.byCache["coalesced"]),
	}
}
