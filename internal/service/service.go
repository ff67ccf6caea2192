// Package service is the HTTP serving layer of darksim: a JSON API over
// every registered experiment and direct TSP queries, designed for many
// concurrent clients in front of computations that each cost seconds to
// minutes of Cholesky-backed simulation.
//
// Two mechanisms, both from internal/runner, keep the expensive core
// safe under load:
//
//   - one runner.Cache of results: a bounded LRU with TTL serves repeated
//     requests without recomputing, and its Do coalesces N concurrent
//     requests for the same key onto exactly one computation, whose
//     result every waiter gets;
//   - one runner.Pool of compute slots, the only way onto a slot for
//     synchronous requests (Pool.Do, from the cache's build) and
//     asynchronous runs (Pool.Go, from the jobs dispatcher) alike. It
//     applies ComputeTimeout to each computation through its context and
//     drains on shutdown.
//
// Observability: /healthz, /metrics (expvar-style counters and a compute
// latency histogram) and structured request logs via log/slog.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"darksim/internal/core"
	"darksim/internal/experiments"
	"darksim/internal/jobs"
	"darksim/internal/policy"
	"darksim/internal/report"
	"darksim/internal/runner"
	"darksim/internal/scenario"
	"darksim/internal/tech"
)

// cacheHeader tells clients (and the request log) how the response was
// produced: a runner.Outcome, "hit", "miss" (this request computed it)
// or "coalesced" (this request joined another request's computation).
const cacheHeader = "X-Darksim-Cache"

// Config parameterizes a Server. Zero values select the defaults.
type Config struct {
	// ComputeTimeout bounds one experiment computation (default 10m).
	ComputeTimeout time.Duration
	// CacheSize is the max number of cached results (default 64); a
	// negative size caches nothing, and requests still coalesce.
	CacheSize int
	// CacheTTL is the lifetime of a cached result (default 1h).
	CacheTTL time.Duration
	// Workers bounds concurrently running computations (default
	// runner.DefaultWorkers()).
	Workers int
	// QueueSize bounds asynchronous runs waiting for a compute slot
	// (default 64); a full queue rejects POST /v1/runs with 429.
	QueueSize int
	// RunStore is the journal that persists run history across
	// restarts (jobs.OpenJournal); nil keeps runs in memory only.
	RunStore *jobs.Journal
	// Logger receives structured request logs; nil disables logging.
	Logger *slog.Logger
	// Now is the clock (for tests); nil means time.Now.
	Now func() time.Time
}

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
	Cache runner.Outcome `json:"cache"` // hit | miss | coalesced
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
	cache   *runner.Cache[string, *Result]
	metrics *Metrics
	pool    *runner.Pool
	runs    *jobs.Manager
	start   time.Time
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
	s := &Server{
		cfg:     cfg,
		log:     log,
		mux:     http.NewServeMux(),
		exps:    make(map[string]experiments.Experiment, len(exps)),
		metrics: &Metrics{},
		pool:    runner.NewPool(cfg.Workers, cfg.ComputeTimeout),
		start:   cfg.Now(),
		cache:   runner.NewCache[string, *Result](cfg.CacheSize, cfg.CacheTTL, cfg.Now),
	}
	for _, e := range exps {
		s.exps[e.ID] = e
		s.order = append(s.order, experimentInfo{ID: e.ID, Description: e.Description})
	}
	s.runs = jobs.New(jobs.Config{
		Journal:   cfg.RunStore,
		Pool:      s.pool,
		QueueSize: cfg.QueueSize,
		Logger:    log,
		Now:       cfg.Now,
	})
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

// Close stops accepting new computations and drains the in-flight
// ones; ctx bounds the drain. The run manager drains first (queued and
// running runs finish or, at ctx expiry, are interrupted and marked
// failed — their persisted points survive), then the compute pool: the
// synchronous computations finish or, at ctx expiry, see their contexts
// cancelled. Cached results keep being served after Close.
func (s *Server) Close(ctx context.Context) error {
	rerr := s.runs.Close(ctx)
	perr := s.pool.Close(ctx)
	if rerr != nil {
		return rerr
	}
	return perr
}

// compute runs c once on a compute slot and wraps its tables in a
// Result; the pool refuses with runner.ErrClosed once Close began. It is
// the build behind the result cache's Do, so it runs detached from any
// one request: a leader's disconnect never kills the result its
// followers wait on.
func (s *Server) compute(c computation) (*Result, error) {
	var res *Result
	err := s.pool.Do(func(ctx context.Context) error {
		s.metrics.Computes.Add(1)
		s.metrics.InFlight.Add(1)
		start := s.cfg.Now()
		tables, err := c.fn(ctx)
		elapsed := s.cfg.Now().Sub(start)
		s.metrics.InFlight.Add(-1)
		s.metrics.observe(elapsed)
		if err != nil {
			s.metrics.ComputeErrors.Add(1)
			return err
		}
		res = newResult(c, tables, start, elapsed)
		return nil
	})
	return res, err
}

// newResult stamps the tables of c computed from start for elapsed as a
// Result.
func newResult(c computation, tables []*report.Table, start time.Time, elapsed time.Duration) *Result {
	return &Result{
		ID:         c.id,
		Params:     c.params,
		Tables:     tables,
		ComputedAt: start,
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
	}
}

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
	c, err := s.experimentCompute(name, duration)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	s.serveResult(w, r, c)
}

// computation is one resolved request. The synchronous handlers and
// POST /v1/runs resolve a request through the same step, so an async run
// has the same key and computes the same tables as the synchronous
// request.
type computation struct {
	key    string            // result-cache and run-dedupe key
	id     string            // Result.ID: experiment name, "tsp", "scenario" or "policy"
	label  string            // run label: experiment or spec name, else the spec hash's prefix
	params map[string]string // response params
	fn     jobs.Job
}

// experimentCompute resolves an experiment name (with optional duration
// override) into its computation.
func (s *Server) experimentCompute(name string, duration float64) (computation, error) {
	e, ok := s.exps[name]
	if !ok {
		return computation{}, fmt.Errorf("%w %q", errUnknownExperiment, name)
	}
	if err := experiments.CheckDuration(name, duration); err != nil {
		return computation{}, fmt.Errorf("invalid duration %v: %w", duration, err)
	}
	c := computation{key: name, id: name, label: name, params: map[string]string{}}
	if duration > 0 {
		if !e.Transient {
			return computation{}, fmt.Errorf("duration is only supported for the transient experiments, not %q", name)
		}
		c.key = fmt.Sprintf("%s?duration=%g", name, duration)
		c.params["duration"] = strconv.FormatFloat(duration, 'g', -1, 64)
	}
	c.fn = func(ctx context.Context) ([]*report.Table, error) {
		res, err := experiments.RunWithDuration(ctx, e, duration)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}
	return c, nil
}

// specCompute is the computation of a content-hashed spec of one kind
// ("scenario" or "policy"): keyed by its hash, so respelled specs share
// one cache entry and one run, and labelled by its name, else by the
// hash's first 12 characters.
func specCompute(kind, hash, name string, fn jobs.Job) computation {
	c := computation{key: kind + ":" + hash, id: kind, label: name,
		params: map[string]string{"hash": hash}, fn: fn}
	if name != "" {
		c.params["name"] = name
	} else {
		c.label = hash[:12]
	}
	return c
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
		if cores, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid cores %q: want an integer in [1,%d]", v, experiments.MaxTSPCores))
			return
		}
		if err := experiments.CheckTSPCores(cores); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	active, err := strconv.Atoi(q.Get("active"))
	if err != nil || active <= 0 || active > cores {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid active %q: want an integer in [1,%d]", q.Get("active"), cores))
		return
	}
	c := computation{
		key: fmt.Sprintf("tsp?node=%s&cores=%d&active=%d", node, cores, active),
		id:  "tsp",
		params: map[string]string{
			"node":   node.String(),
			"cores":  strconv.Itoa(cores),
			"active": strconv.Itoa(active),
		},
	}
	c.fn = func(ctx context.Context) ([]*report.Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := experiments.TSPTable(ctx, node, cores, core.DefaultTDTM, active, active)
		if err != nil {
			return nil, err
		}
		return []*report.Table{t}, nil
	}
	s.serveResult(w, r, c)
}

// serveResult serves c's key from the result cache, or coalesces onto
// (or starts) the one computation of c for it, and writes the JSON
// response with error-to-status mapping. A client that disconnects stops
// waiting; the computation runs on for the other waiters and the cache.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, c computation) {
	res, source, err := s.cache.Do(r.Context(), c.key, func() (*Result, error) {
		return s.compute(c)
	})
	w.Header().Set(cacheHeader, string(source))
	if err != nil {
		switch {
		case errors.Is(err, runner.ErrClosed):
			writeRetryError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("%s: computation timed out: %w", c.id, err))
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

// handleHealth answers 200 "ok", or 503 "degraded" naming the run
// journal's error once the journal refuses writes (a full disk): from
// then on every POST /v1/runs fails until the daemon restarts.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, body := http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": s.cfg.Now().Sub(s.start).Seconds(),
	}
	if err := s.cfg.RunStore.Err(); err != nil {
		status = http.StatusServiceUnavailable
		body["status"], body["error"] = "degraded", err.Error()
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.cache.Stats(), s.runs.Stats()))
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

// writeRequestError answers a request that did not resolve into a
// computation: 404 for an unknown experiment, 400 for anything else.
func writeRequestError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errUnknownExperiment) {
		status = http.StatusNotFound
	}
	writeError(w, status, err)
}

// maxSpecBytes bounds a POST body. Specs are small JSON documents; a
// megabyte already fits thousands of workload entries.
const maxSpecBytes = 1 << 20

// readBody reads a POST body of at most maxSpecBytes, named what in its
// errors. On failure it has already answered (400 for a read error, 413
// above the bound) and returns false.
func readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading %s: %w", what, err))
		return nil, false
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s exceeds %d bytes", what, maxSpecBytes))
		return nil, false
	}
	return body, true
}
