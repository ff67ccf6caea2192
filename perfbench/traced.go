package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/jobs"
	"darksim/internal/service"
	"darksim/internal/thermal"
)

// Slice sizes of the traced run: a fixed amount of work per workload.
const (
	queryTracePasses   = 2 // × passOps operations
	sandboxTracePasses = 2 // × len(passSlots) runs
)

// sliceRNG gives every slice of a workload the same inputs, so the
// untraced and traced copies are comparable.
func sliceRNG(seed uint64, workload string) *rand.Rand {
	h := uint64(0)
	for _, c := range workload {
		h = h*131 + uint64(c)
	}
	return rand.New(rand.NewPCG(seed, h))
}

// traceData is what the traced slices measured for the per-layer
// metrics.
type traceData struct {
	figMS    map[string]float64
	renderMS float64

	svc                  service.Snapshot // /metrics delta over the queries slice
	platformCacheLen     int
	infHits, infMisses   uint64
	solves, cgIterations uint64
	queueWaitMS, runMS   []float64
	eventsPerRun         float64
	sandboxViolations    int
	sandboxControlViols  int
}

// figuresSlice is one figure pass; failures are added to res.
func figuresSlice(ctx context.Context, tr *tracer, parent int, seed uint64, res *workloadResult, td *traceData) (float64, error) {
	jobs, err := loadFigureJobs()
	if err != nil {
		return 0, err
	}
	id := tr.begin(parent, "slice.figures")
	pr, err := figurePass(ctx, tr, id, passOrder(sliceRNG(seed, "figures"), jobs, 0))
	if err != nil {
		return 0, err
	}
	tr.end(id, nil)
	res.attempted += len(jobs)
	for _, b := range checkFigures(jobs, pr) {
		res.failed++
		res.notes = append(res.notes, "golden mismatch: "+b)
	}
	if td != nil {
		td.figMS = map[string]float64{}
		for fid, o := range pr.outs {
			td.figMS[fid] = o.ms
		}
		td.renderMS = pr.renderMS
	}
	return pr.wallMS, nil
}

// querySlice runs queryTracePasses passes on a freshly set-up server and
// returns the time the passes took.
func querySlice(ctx context.Context, tr *tracer, parent int, seed uint64, res *workloadResult, td *traceData) (ms float64, err error) {
	sid := tr.begin(parent, "service.setup")
	srv, _, err := setupServer()
	if err != nil {
		return 0, err
	}
	tr.end(sid, nil)
	defer func() { err = errors.Join(err, srv.close()) }()
	before, err := srv.snapshot()
	if err != nil {
		return 0, err
	}
	infBefore := thermal.InfluenceCacheStats()
	solverBefore := map[platformKey]thermal.SolverStats{}
	for _, k := range warmPlatforms {
		solverBefore[k] = platformSolverStats(k)
	}
	st := newQueryStats()
	id := tr.begin(parent, "slice.queries")
	t0 := time.Now()
	queryLoad(srv, newQueryGen(sliceRNG(seed, "queries")), st, tr, id, func(pass int) bool { return pass < queryTracePasses })
	ms = msSince(t0)
	after, err := srv.snapshot()
	if err != nil {
		return 0, err
	}
	infAfter := thermal.InfluenceCacheStats()
	delta := snapshotDelta(before, after)
	var solves, iters uint64
	for k := range st.keys {
		s, b := platformSolverStats(k), solverBefore[k]
		solves += s.Solves - b.Solves
		iters += s.CGIterations - b.CGIterations
	}
	tr.end(id, map[string]float64{
		"cache_hits": float64(delta.Cache.Hits), "cache_misses": float64(delta.Cache.Misses),
		"coalesced_waiters": float64(delta.Compute.CoalescedWaiters), "computes": float64(delta.Compute.Count),
		"compute_total_ms": delta.Compute.TotalMS,
		"influence_hits":   float64(infAfter.Hits - infBefore.Hits), "influence_misses": float64(infAfter.Misses - infBefore.Misses),
		"solves": float64(solves), "cg_iterations": float64(iters),
	})
	verifyQuerySamples(ctx, st)
	res.attempted += st.attempted
	res.failed += st.failed
	res.notes = append(res.notes, st.errs...)
	if td != nil {
		td.svc = delta
		td.platformCacheLen = experiments.PlatformCacheLen()
		td.infHits, td.infMisses = infAfter.Hits-infBefore.Hits, infAfter.Misses-infBefore.Misses
		td.solves, td.cgIterations = solves, iters
	}
	return ms, nil
}

// platformSolverStats reads the solver counters of a cached platform's
// thermal model (building it if it is not cached).
func platformSolverStats(k platformKey) thermal.SolverStats {
	p, err := experiments.PlatformFor(k.node, k.cores)
	if err != nil {
		return thermal.SolverStats{}
	}
	return p.Thermal.SolverStats()
}

// snapshotDelta subtracts the monotonic counters of two /metrics
// snapshots.
func snapshotDelta(a, b service.Snapshot) service.Snapshot {
	var d service.Snapshot
	d.Requests = b.Requests - a.Requests
	d.Cache.Hits = b.Cache.Hits - a.Cache.Hits
	d.Cache.Misses = b.Cache.Misses - a.Cache.Misses
	d.Compute.Count = b.Compute.Count - a.Compute.Count
	d.Compute.Errors = b.Compute.Errors - a.Compute.Errors
	d.Compute.CoalescedWaiters = b.Compute.CoalescedWaiters - a.Compute.CoalescedWaiters
	d.Compute.TotalMS = b.Compute.TotalMS - a.Compute.TotalMS
	return d
}

// sandboxSlice runs sandboxTracePasses passes on a freshly set-up server,
// then reads each run's server-side timestamps.
func sandboxSlice(ctx context.Context, tr *tracer, parent int, seed uint64, res *workloadResult, td *traceData) (ms float64, err error) {
	sid := tr.begin(parent, "service.setup")
	srv, _, err := setupServer()
	if err != nil {
		return 0, err
	}
	tr.end(sid, nil)
	defer func() { err = errors.Join(err, srv.close()) }()
	st := newSandboxStats()
	id := tr.begin(parent, "slice.sandbox")
	t0 := time.Now()
	sandboxLoad(srv, newSpecGen(sliceRNG(seed, "sandbox")), st, tr, id, func(pass int) bool { return pass < sandboxTracePasses })
	ms = msSince(t0)
	var waits, runs []float64
	for _, rid := range st.ids {
		r, err := srv.do(http.MethodGet, "/v1/runs/"+rid, nil)
		if err != nil {
			return 0, err
		}
		var run jobs.Run
		if err := json.Unmarshal(r.body, &run); err != nil {
			return 0, fmt.Errorf("run %s: %w", rid, err)
		}
		tr.add(id, "jobs.queue_wait", run.Created, run.Started, nil)
		tr.add(id, "jobs.run", run.Started, run.Finished, map[string]float64{"points": float64(run.Done)})
		waits = append(waits, float64(run.Started.Sub(run.Created).Nanoseconds())/1e6)
		runs = append(runs, float64(run.Finished.Sub(run.Started).Nanoseconds())/1e6)
	}
	tr.end(id, map[string]float64{"runs": float64(len(st.ids)), "events": float64(st.events)})
	res.attempted += st.attempted
	res.failed += st.failed
	res.notes = append(res.notes, st.errs...)
	if st.violations != st.controlViols {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("sandbox: violations %d != negative-control violations %d", st.violations, st.controlViols))
	}
	if td != nil {
		td.queueWaitMS, td.runMS = waits, runs
		td.eventsPerRun = float64(st.events) / float64(max(len(st.ids), 1))
		td.sandboxViolations, td.sandboxControlViols = st.violations, st.controlViols
	}
	return ms, nil
}

type sliceFn func(ctx context.Context, tr *tracer, parent int, seed uint64, res *workloadResult, td *traceData) (float64, error)

var sliceFns = map[string]sliceFn{"figures": figuresSlice, "queries": querySlice, "sandbox": sandboxSlice}

// runTraced is the --trace 1 run. After a discarded warm-up slice, the
// named workload's slice runs four times in the order untraced, traced,
// traced, untraced; the overhead is the mean traced minus the mean
// untraced time. The other two workloads run one traced slice each, then
// the probes call every layer directly.
func runTraced(ctx context.Context, w io.Writer, workload string, seed uint64, outDir string, m machine, res *workloadResult) error {
	tr := newTracer()
	td := &traceData{}
	root := tr.begin(0, "perfbench.traced")
	fn := sliceFns[workload]
	// A discarded first slice takes the process's one-time costs (code
	// paths run for the first time, heap growth) out of the comparison.
	wid := tr.begin(root, "warmup."+workload)
	if _, err := fn(ctx, nil, 0, seed, &workloadResult{}, nil); err != nil {
		return err
	}
	tr.end(wid, nil)
	var untraced, traced []float64
	for i, on := range []bool{false, true, true, false} {
		var data *traceData
		if i == 1 {
			data = td
		}
		if on {
			ms, err := fn(ctx, tr, root, seed, res, data)
			if err != nil {
				return err
			}
			traced = append(traced, ms)
			continue
		}
		// The untraced copy records nothing inside; one span on the
		// root accounts for its time.
		uid := tr.begin(root, "untraced."+workload)
		ms, err := fn(ctx, nil, 0, seed, res, data)
		if err != nil {
			return err
		}
		tr.end(uid, nil)
		untraced = append(untraced, ms)
	}
	for _, other := range []string{"figures", "queries", "sandbox"} {
		if other != workload {
			if _, err := sliceFns[other](ctx, tr, root, seed, res, td); err != nil {
				return err
			}
		}
	}
	overhead := map[string]float64{
		"untraced_ms": mean(untraced), "traced_ms": mean(traced),
		"overhead_ms":  mean(traced) - mean(untraced),
		"overhead_pct": 100 * (mean(traced) - mean(untraced)) / mean(untraced),
	}

	pid := tr.begin(root, "probes")
	buildMS, infMS, err := probePlatforms(ctx, tr, pid)
	if err != nil {
		return err
	}
	tspMS, err := probeTSPWarm(ctx, tr, pid, 7)
	if err != nil {
		return err
	}
	// The committed BENCH_PR*.json entries ran at GOMAXPROCS 1.
	prev := runtime.GOMAXPROCS(1)
	tspMS1, err := probeTSPWarm(ctx, tr, pid, 7)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	compileMS, evalMS, err := probeScenarios(ctx, tr, pid, sliceRNG(seed, "scenario"))
	if err != nil {
		return err
	}
	dense, sparse, macro, err := probeTransient(tr, pid)
	if err != nil {
		return err
	}
	runMS, batchMS, simRate, err := probeSim(ctx, tr, pid)
	if err != nil {
		return err
	}
	pp, err := probePolicy(ctx, tr, pid)
	if err != nil {
		return err
	}
	tr.end(pid, nil)
	tr.end(root, nil)
	res.attempted++
	if len(pp.failures) > 0 || pp.violations != pp.controlViolations {
		res.failed++
		res.notes = append(res.notes, pp.failures...)
	}

	mt := &res.metrics
	lookups := float64(td.svc.Cache.Hits + td.svc.Cache.Misses)
	mt.add("service.cache_hit_ratio", "ratio", float64(td.svc.Cache.Hits)/lookups, nil)
	mt.add("service.coalesced_ratio", "ratio", float64(td.svc.Compute.CoalescedWaiters)/lookups, nil)
	mt.add("service.compute_ms", "ms", td.svc.Compute.TotalMS/float64(max(td.svc.Compute.Count, 1)), nil)
	mt.add("jobs.queue_wait_ms", "ms", median(td.queueWaitMS), td.queueWaitMS)
	mt.add("jobs.run_ms", "ms", median(td.runMS), td.runMS)
	mt.add("jobs.events_per_run", "count", td.eventsPerRun, nil)
	for _, e := range experiments.Registry() {
		mt.add("experiments."+e.ID+"_ms", "ms", td.figMS[e.ID], nil)
	}
	mt.add("experiments.platform_build_ms", "ms", median(buildMS), buildMS)
	mt.add("experiments.platform_cache_len", "count", float64(td.platformCacheLen), nil)
	mt.add("scenario.compile_ms", "ms", median(compileMS), compileMS)
	mt.add("scenario.evaluate_ms", "ms", median(evalMS), evalMS)
	mt.add("tsp.worstcase_ms", "ms", median(tspMS), tspMS)
	mt.add("thermal.influence_build_ms", "ms", median(infMS), infMS)
	mt.add("thermal.influence_cache_hit_ratio", "ratio", float64(td.infHits)/float64(max(td.infHits+td.infMisses, 1)), nil)
	mt.add("thermal.solves", "count", float64(td.solves), nil)
	mt.add("thermal.cg_iterations", "count", float64(td.cgIterations), nil)
	mt.add("thermal.transient_step_us.dense", "us", median(dense), dense)
	mt.add("thermal.transient_step_us.sparse", "us", median(sparse), sparse)
	mt.add("thermal.macro_step_us", "us", median(macro), macro)
	mt.add("sim.run_ms", "ms", median(runMS), runMS)
	mt.add("sim.batch_ms", "ms", median(batchMS), batchMS)
	mt.add("sim.periods_per_host_s", "1/s", simRate, nil)
	mt.add("policy.race_ms", "ms", median(pp.raceMS), pp.raceMS)
	mt.add("policy.tune_ms", "ms", median(pp.tuneMS), pp.tuneMS)
	mt.add("policy.periods_per_host_s", "1/s", pp.periodsPerS, nil)
	mt.add("policy.violations", "count", float64(pp.violations), nil)
	mt.add("report.render_ms", "ms", td.renderMS, nil)

	res.props = append(res.props,
		fmt.Sprintf("traced run: %s slice x5 (warm-up, untraced, traced, traced, untraced), one traced slice of each other workload, then direct layer probes", workload),
		fmt.Sprintf("policy probe: violations=%d negative_control_violations=%d; sandbox slice: violations=%d negative_control_violations=%d",
			pp.violations, pp.controlViolations, td.sandboxViolations, td.sandboxControlViols),
		fmt.Sprintf("tsp.worstcase_ms samples at 1024 cores (TSPWorstCaseWarm op): %s", fmtSamples(tspMS)),
		fmt.Sprintf("same op at GOMAXPROCS=1, as BENCH_PR6.json and BENCH_PR10.json recorded it (119 -> 186 ms): %s", fmtSamples(tspMS1)),
	)
	fmt.Fprintf(w, "tracing overhead on %s: untraced %.1f ms, traced %.1f ms, overhead %+.1f ms (%+.2f%%)\n",
		workload, overhead["untraced_ms"], overhead["traced_ms"], overhead["overhead_ms"], overhead["overhead_pct"])
	printStats(w, tr.stats())
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := tr.write(path, m, workload, overhead); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func fmtSamples(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.1f", x)
	}
	return fmt.Sprintf("[%s] median %.1f q1 %.1f q3 %.1f", s, median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}
