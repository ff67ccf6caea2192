// Package service is the HTTP serving layer of darksim: a JSON API over
// every registered experiment and direct TSP queries, designed for many
// concurrent clients in front of computations that each cost seconds to
// minutes of Cholesky-backed simulation.
//
// Three mechanisms keep the expensive core safe under load:
//
//   - request coalescing (singleflight): N concurrent requests for the
//     same figure trigger exactly one computation, and every waiter gets
//     the one result;
//   - a bounded LRU result cache with TTL, so repeated requests are
//     served without recomputing;
//   - a bounded compute pool (internal/runner) with per-compute timeouts
//     propagated via context into experiments.Run, drained gracefully on
//     shutdown.
//
// Observability: /healthz, /metrics (expvar-style counters and a compute
// latency histogram) and structured request logs via log/slog.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/jobs"
	"darksim/internal/policy"
	"darksim/internal/report"
	"darksim/internal/runner"
	"darksim/internal/scenario"
	"darksim/internal/tech"
	"darksim/internal/tsp"
)

// ErrDraining is returned for computations requested after Close began.
var ErrDraining = errors.New("service: shutting down")

// cacheHeader tells clients (and the request log) how the response was
// produced: "hit", "miss" (this request computed it) or "coalesced"
// (this request joined another request's computation).
const cacheHeader = "X-Darksim-Cache"

// Config parameterizes a Server. Zero values select the defaults.
type Config struct {
	// ComputeTimeout bounds one experiment computation (default 10m).
	ComputeTimeout time.Duration
	// CacheSize is the max number of cached results (default 64).
	CacheSize int
	// CacheTTL is the lifetime of a cached result (default 1h).
	CacheTTL time.Duration
	// Workers bounds concurrently running computations (default
	// runner.DefaultWorkers()).
	Workers int
	// QueueSize bounds asynchronous runs waiting for a compute slot
	// (default 64); a full queue rejects POST /v1/runs with 429.
	QueueSize int
	// RunStore persists run history across restarts (e.g. a
	// jobs.FileStore); nil keeps runs in memory only.
	RunStore jobs.Store
	// RetryAfter is the backoff hint attached to 429 and drain 503
	// responses (default 5s).
	RetryAfter time.Duration
	// Logger receives structured request logs; nil disables logging.
	Logger *slog.Logger
	// Now is the clock (for tests); nil means time.Now.
	Now func() time.Time
}

// computeFn produces one request key's result tables; it is the unit
// both the synchronous do pipeline and the asynchronous run runtime
// execute, which is what guarantees a run's terminal result is identical
// to the synchronous response for the same key.
type computeFn func(ctx context.Context) ([]*report.Table, error)

// Result is the computed payload for one request key, as served to
// clients and stored in the cache.
type Result struct {
	ID         string            `json:"id"`
	Params     map[string]string `json:"params,omitempty"`
	Tables     []*report.Table   `json:"tables"`
	ComputedAt time.Time         `json:"computed_at"`
	ElapsedMS  float64           `json:"elapsed_ms"`
}

// resultResponse wraps a Result with how it was obtained.
type resultResponse struct {
	*Result
	Cache string `json:"cache"` // hit | miss | coalesced
}

// experimentInfo is one row of the /v1/experiments listing.
type experimentInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

// Server is the darksimd HTTP handler. Create with New, serve with
// net/http, stop with Close.
type Server struct {
	cfg     Config
	log     *slog.Logger
	mux     *http.ServeMux
	exps    map[string]experiments.Experiment
	order   []experimentInfo
	cache   *resultCache
	flights flightGroup
	metrics *Metrics
	pool    *runner.Group
	runs    *jobs.Manager
	stop    context.CancelFunc
	start   time.Time

	drainMu  chan struct{} // 1-slot semaphore guarding closed
	closed   bool
	inflight chan struct{} // counts computations; see beginCompute
	pending  int
	idle     chan struct{} // closed... (see drain)
}

// New builds a Server over the given experiments; nil means every
// registered figure plus the ablation studies.
func New(cfg Config, exps []experiments.Experiment) *Server {
	if cfg.ComputeTimeout <= 0 {
		cfg.ComputeTimeout = 10 * time.Minute
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 64
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = time.Hour
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runner.DefaultWorkers()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if exps == nil {
		exps = append(experiments.Registry(), experiments.AblationRegistry()...)
	}
	baseCtx, stop := context.WithCancel(context.Background())
	pool, _ := runner.WithContext(baseCtx, cfg.Workers)
	s := &Server{
		cfg:     cfg,
		log:     log,
		mux:     http.NewServeMux(),
		exps:    make(map[string]experiments.Experiment, len(exps)),
		metrics: &Metrics{},
		pool:    pool,
		stop:    stop,
		start:   cfg.Now(),
		drainMu: make(chan struct{}, 1),
	}
	s.cache = newResultCache(cfg.CacheSize, cfg.CacheTTL, cfg.Now, s.metrics)
	for _, e := range exps {
		s.exps[e.ID] = e
		s.order = append(s.order, experimentInfo{ID: e.ID, Description: e.Description})
	}
	runsCfg := jobs.Config{
		Store:     cfg.RunStore,
		Pool:      pool,
		QueueSize: cfg.QueueSize,
		Timeout:   cfg.ComputeTimeout,
		Logger:    log,
		Now:       cfg.Now,
	}
	mgr, err := jobs.New(runsCfg)
	if err != nil {
		// The store replay is done by OpenFileStore before it reaches us;
		// an error here means a store that lies about its own history.
		// Serve with in-memory runs rather than refuse to start.
		log.Error("run store unusable; falling back to in-memory runs", "err", err)
		runsCfg.Store = nil
		mgr, _ = jobs.New(runsCfg)
	}
	s.runs = mgr
	s.mux.HandleFunc("GET /v1/experiments", s.handleList)
	s.mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/tsp", s.handleTSP)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarioList)
	s.mux.HandleFunc("GET /v1/scenarios/{name}", s.handleScenarioByName)
	s.mux.HandleFunc("POST /v1/scenarios", s.handleScenarioPost)
	s.mux.HandleFunc("POST /v1/policies", s.handlePolicyPost)
	s.mux.HandleFunc("POST /v1/runs", s.handleRunSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleRunList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleRunCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusWriter captures the status and byte count for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController, so the
// SSE handler can flush through the logging wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP implements http.Handler with counting and structured logs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	start := s.cfg.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	s.log.Info("request",
		"method", r.Method,
		"path", r.URL.Path,
		"query", r.URL.RawQuery,
		"status", sw.status,
		"bytes", sw.bytes,
		"dur_ms", float64(s.cfg.Now().Sub(start))/float64(time.Millisecond),
		"cache", sw.Header().Get(cacheHeader),
	)
}

// Close stops accepting new computations and drains the in-flight ones
// through the runner pool; ctx bounds the drain. The run manager drains
// first (queued and running runs finish or, at ctx expiry, are
// interrupted and marked failed — their persisted points survive), then
// the synchronous computations. After the drain (or on ctx expiry) the
// base context is cancelled, so stragglers observe cancellation. Cached
// results keep being served after Close.
func (s *Server) Close(ctx context.Context) error {
	rerr := s.runs.Close(ctx)
	s.drainMu <- struct{}{}
	already := s.closed
	s.closed = true
	idle := s.idleLocked()
	<-s.drainMu
	if already {
		<-idle
		return nil
	}
	select {
	case <-idle:
		s.stop()
		s.pool.Wait()
		return rerr
	case <-ctx.Done():
		s.stop() // hurry the stragglers via context cancellation
		<-idle
		s.pool.Wait()
		return ctx.Err()
	}
}

// beginCompute registers one computation unless the server is draining.
func (s *Server) beginCompute() bool {
	s.drainMu <- struct{}{}
	defer func() { <-s.drainMu }()
	if s.closed {
		return false
	}
	s.pending++
	return true
}

// endCompute retires one computation and wakes a pending drain.
func (s *Server) endCompute() {
	s.drainMu <- struct{}{}
	s.pending--
	if s.pending == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	<-s.drainMu
}

// idleLocked returns a channel closed once no computation is pending.
// Callers must hold drainMu.
func (s *Server) idleLocked() chan struct{} {
	ch := make(chan struct{})
	if s.pending == 0 {
		close(ch)
		return ch
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	return s.idle
}

// do serves key from the cache, or coalesces onto (or starts) the one
// in-flight computation of fn for that key. The second return value
// reports how ("hit", "miss", "coalesced").
func (s *Server) do(reqCtx context.Context, key, id string, params map[string]string, fn func(ctx context.Context) ([]*report.Table, error)) (*Result, string, error) {
	if res, ok := s.cache.get(key); ok {
		s.metrics.CacheHits.Add(1)
		return res, "hit", nil
	}
	s.metrics.CacheMisses.Add(1)
	c, leader := s.flights.join(key)
	source := "coalesced"
	if leader {
		source = "miss"
		if !s.beginCompute() {
			s.flights.complete(key, c, nil, ErrDraining)
		} else {
			go s.runFlight(key, id, params, c, fn)
		}
	} else {
		s.metrics.Coalesced.Add(1)
	}
	select {
	case <-c.done:
		return c.res, source, c.err
	case <-reqCtx.Done():
		// The client is gone; the computation keeps running for the
		// other waiters and the cache.
		return nil, source, reqCtx.Err()
	}
}

// runFlight executes one coalesced computation on the bounded pool.
func (s *Server) runFlight(key, id string, params map[string]string, c *call, fn func(ctx context.Context) ([]*report.Table, error)) {
	s.pool.Go(func(poolCtx context.Context) error {
		defer s.endCompute()
		ctx, cancel := context.WithTimeout(poolCtx, s.cfg.ComputeTimeout)
		defer cancel()
		s.metrics.Computes.Add(1)
		s.metrics.InFlight.Add(1)
		start := s.cfg.Now()
		tables, err := fn(ctx)
		elapsed := s.cfg.Now().Sub(start)
		s.metrics.InFlight.Add(-1)
		s.metrics.observe(elapsed)
		var res *Result
		if err != nil {
			s.metrics.ComputeErrors.Add(1)
		} else {
			res = &Result{
				ID:         id,
				Params:     params,
				Tables:     tables,
				ComputedAt: start,
				ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
			}
			s.cache.put(key, res)
		}
		s.flights.complete(key, c, res, err)
		// Per-request failures must not cancel the pool's other work.
		return nil
	})
}

// maxTSPCores caps the platform size /v1/tsp will build. With the
// sparse-first thermal solver the model itself is O(nnz), and the
// remaining quadratic allocation is the block×block influence matrix
// (~134 MB at this cap), so an unbounded query parameter would still let
// one request exhaust memory; the paper's largest platform (8 nm) has
// 361 cores, far below this limit.
const maxTSPCores = 4096

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.order)
}

// errUnknownExperiment marks lookups of unregistered experiment names,
// so both the sync and async paths map them to 404.
var errUnknownExperiment = errors.New("unknown experiment")

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := allowParams(r, "duration"); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var duration float64
	if v := r.URL.Query().Get("duration"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil || d == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid duration %q: want a positive number of seconds", v))
			return
		}
		duration = d
	}
	key, params, fn, err := s.experimentCompute(name, duration)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errUnknownExperiment) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	s.serveResult(w, r, key, name, params, fn)
}

// experimentCompute resolves an experiment name (with optional duration
// override) into its cache key, response params, and compute closure —
// the one resolution both GET /v1/experiments/{name} and POST /v1/runs
// share, so an async run produces the same key and the same tables as
// the synchronous request.
func (s *Server) experimentCompute(name string, duration float64) (string, map[string]string, computeFn, error) {
	e, ok := s.exps[name]
	if !ok {
		return "", nil, nil, fmt.Errorf("%w %q", errUnknownExperiment, name)
	}
	if err := experiments.CheckDuration(name, duration); err != nil {
		return "", nil, nil, fmt.Errorf("invalid duration %v: %w", duration, err)
	}
	key := name
	params := map[string]string{}
	if duration > 0 {
		if !e.Transient {
			return "", nil, nil, fmt.Errorf("duration is only supported for the transient experiments, not %q", name)
		}
		key = fmt.Sprintf("%s?duration=%g", name, duration)
		params["duration"] = strconv.FormatFloat(duration, 'g', -1, 64)
	}
	fn := func(ctx context.Context) ([]*report.Table, error) {
		res, err := experiments.RunWithDuration(ctx, e, duration)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}
	return key, params, fn, nil
}

func (s *Server) handleTSP(w http.ResponseWriter, r *http.Request) {
	if err := allowParams(r, "node", "cores", "active"); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	node, err := parseNode(q.Get("node"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cores := experiments.CoresForNode(node)
	if v := q.Get("cores"); v != "" {
		if cores, err = strconv.Atoi(v); err != nil || cores <= 0 || cores > maxTSPCores {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid cores %q: want an integer in [1,%d]", v, maxTSPCores))
			return
		}
	}
	active, err := strconv.Atoi(q.Get("active"))
	if err != nil || active <= 0 || active > cores {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid active %q: want an integer in [1,%d]", q.Get("active"), cores))
		return
	}
	params := map[string]string{
		"node":   node.String(),
		"cores":  strconv.Itoa(cores),
		"active": strconv.Itoa(active),
	}
	key := fmt.Sprintf("tsp?node=%s&cores=%d&active=%d", node, cores, active)
	fn := func(ctx context.Context) ([]*report.Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := experiments.PlatformFor(node, cores)
		if err != nil {
			return nil, err
		}
		calc, err := tsp.New(p.Thermal, p.TDTM)
		if err != nil {
			return nil, err
		}
		budget, _, err := calc.WorstCase(ctx, active)
		if err != nil {
			return nil, err
		}
		t := &report.Table{
			Title:   fmt.Sprintf("TSP worst-case budget, %s, %d cores", node, cores),
			Columns: []string{"active cores", "TSP/core [W]", "total [W]"},
		}
		t.AddRow(strconv.Itoa(active),
			fmt.Sprintf("%.3f", budget),
			fmt.Sprintf("%.1f", budget*float64(active)))
		t.AddNote("critical temperature (TDTM): %.0f °C", calc.Tcrit())
		return []*report.Table{t}, nil
	}
	s.serveResult(w, r, key, "tsp", params, fn)
}

// serveResult runs the do pipeline and writes the JSON response with
// error-to-status mapping.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, key, id string, params map[string]string, fn func(ctx context.Context) ([]*report.Table, error)) {
	res, source, err := s.do(r.Context(), key, id, params, fn)
	w.Header().Set(cacheHeader, source)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			s.writeRetryError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("%s: computation timed out: %w", id, err))
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, experiments.ErrOptions), errors.Is(err, scenario.ErrSpec),
			errors.Is(err, policy.ErrPolicy):
			writeError(w, http.StatusBadRequest, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, resultResponse{Result: res, Cache: source})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": s.cfg.Now().Sub(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.cache.len(), s.runs.Stats()))
}

// allowParams rejects query parameters outside the allowed set, so typos
// fail loudly instead of silently computing something else.
func allowParams(r *http.Request, allowed ...string) error {
	for k := range r.URL.Query() {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown parameter %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// parseNode accepts "16", "16nm" (any registered node); empty selects
// the paper's 16 nm baseline.
func parseNode(v string) (tech.Node, error) {
	if v == "" {
		return tech.Node16, nil
	}
	n, err := strconv.Atoi(strings.TrimSuffix(v, "nm"))
	if err == nil {
		for _, node := range tech.Nodes() {
			if tech.Node(n) == node {
				return node, nil
			}
		}
	}
	return 0, fmt.Errorf("invalid node %q: want one of %v", v, tech.Nodes())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
