// Command darksimd serves the dark-silicon experiments over HTTP as a
// long-running daemon: a JSON API with request coalescing, a bounded LRU
// result cache, one pool of -workers compute slots that synchronous
// requests and async runs share under one -compute-timeout deadline, and
// graceful shutdown that drains the async runs, then the compute pool,
// within -drain-timeout.
//
// Usage:
//
//	darksimd                       # listen on :8080
//	darksimd -addr 127.0.0.1:9090  # custom listen address
//	darksimd -pprof localhost:6060 # expose net/http/pprof on a side port
//
// Endpoints:
//
//	GET /v1/experiments                   list every experiment
//	GET /v1/experiments/fig1              run/fetch one (tables as JSON)
//	GET /v1/experiments/fig11?duration=5  shortened transient run
//	GET /v1/tsp?node=16&active=40         thermal safe power query
//	POST /v1/runs                         submit an async run (202 + run id)
//	GET /v1/runs/{id}                     run snapshot (terminal: full result)
//	GET /v1/runs/{id}/events              SSE stream, Last-Event-ID replay
//	DELETE /v1/runs/{id}                  cooperative cancellation
//	GET /healthz                          liveness (503 degraded: run journal refuses writes)
//	GET /metrics                          counters + latency histogram
//
// With -run-store, run history (state transitions and every partial
// result) is appended to a journal file and survives restarts: runs that
// were mid-flight when the process died reopen as failed, their completed
// points intact. A record torn by the crash is cut off on restart; a file
// that cannot be opened or holds corrupt history stops the daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"darksim/internal/jobs"
	"darksim/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache-size", 64, "max cached results (<= 0 disables the cache)")
	cacheTTL := flag.Duration("cache-ttl", time.Hour, "cached result lifetime (0 = never expires)")
	computeTimeout := flag.Duration("compute-timeout", 10*time.Minute, "per-computation deadline")
	workers := flag.Int("workers", 0, "max concurrent computations (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight computations")
	runStore := flag.String("run-store", "", "append-only file persisting async run history (empty = in-memory)")
	runQueue := flag.Int("run-queue", 0, "max async runs waiting for a compute slot (0 = 64); a full queue answers 429")
	pprofAddr := flag.String("pprof", "", "listen address for the net/http/pprof debug server, e.g. localhost:6060 (empty = disabled)")
	flag.Parse()
	if err := run(*addr, *cacheSize, *cacheTTL, *computeTimeout, *workers, *drainTimeout, *runStore, *runQueue, *pprofAddr); err != nil {
		fmt.Fprintf(os.Stderr, "darksimd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, cacheSize int, cacheTTL, computeTimeout time.Duration, workers int, drainTimeout time.Duration, runStore string, runQueue int, pprofAddr string) error {
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if pprofAddr != "" {
		// The profiler gets its own listener and mux so the debug surface
		// is never reachable through the public API address, and so the
		// service mux stays free of the DefaultServeMux side effects the
		// net/http/pprof import is famous for.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofServer := &http.Server{Addr: pprofAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Info("pprof listening", "addr", pprofAddr)
			if err := pprofServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof server", "err", err)
			}
		}()
		defer pprofServer.Close()
	}
	var journal *jobs.Journal
	if runStore != "" {
		var err error
		// The service closes the journal when its run manager drains.
		if journal, err = jobs.OpenJournal(runStore); err != nil {
			return err
		}
	}
	svc := service.New(service.Config{
		ComputeTimeout: computeTimeout,
		CacheSize:      cacheSize,
		CacheTTL:       cacheTTL,
		Workers:        workers,
		QueueSize:      runQueue,
		RunStore:       journal,
		Logger:         log,
	}, nil)
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpServer.ListenAndServe() }()
	log.Info("listening", "addr", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down", "drain_timeout", drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the compute pool.
	serr := httpServer.Shutdown(sctx)
	cerr := svc.Close(sctx)
	if err := errors.Join(serr, cerr); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Info("drained cleanly")
	return nil
}
