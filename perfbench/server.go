package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"darksim/internal/experiments"
	"darksim/internal/service"
	"darksim/internal/tech"
	"darksim/internal/thermal"
)

// server is an in-process darksimd: service.New with cmd/darksimd's flag
// defaults, served by net/http on a loopback port.
type server struct {
	svc    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer builds the service exactly as cmd/darksimd does with no
// flags: cache 64 entries for 1 h, 10 min compute timeout, GOMAXPROCS
// workers, the default run queue, in-memory run store, a slog text
// handler. Only the log destination differs (discarded instead of
// stderr), so the handler still formats every record. Like darksimd, it
// never calls experiments.SetPlatformCacheCap.
func startServer() (*server, error) {
	svc := service.New(service.Config{
		ComputeTimeout: 10 * time.Minute,
		CacheSize:      64,
		CacheTTL:       time.Hour,
		Workers:        0,
		QueueSize:      0,
		RunStore:       nil,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:    svc,
		hs:     &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener, drains the service and waits for Serve to
// return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	serr := s.svc.Close(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	s.client.CloseIdleConnections()
	return errors.Join(herr, serr)
}

// response is one completed request as the load generator saw it.
type response struct {
	status  int
	cache   string
	body    []byte
	ttfbMS  float64
	totalMS float64
}

// do sends one request and reads the whole body.
func (s *server) do(method, path string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return response{}, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	ttfb := msSince(t0)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, cache: resp.Header.Get("X-Darksim-Cache"),
		body: data, ttfbMS: ttfb, totalMS: msSince(t0)}, nil
}

// snapshot fetches /metrics.
func (s *server) snapshot() (service.Snapshot, error) {
	var snap service.Snapshot
	r, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return snap, err
	}
	if r.status != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", r.status)
	}
	return snap, json.Unmarshal(r.body, &snap)
}

// platformKey names one (node, cores) platform of the shared cache.
type platformKey struct {
	node  tech.Node
	cores int
}

// warmPlatforms is the fixed platform set every server set-up warms: the
// paper's four platforms (100/100/198/361 cores) plus larger 16 nm grids
// up to 1024 cores.
var warmPlatforms = []platformKey{
	{tech.Node22, 100}, {tech.Node16, 100}, {tech.Node11, 198}, {tech.Node8, 361},
	{tech.Node16, 256}, {tech.Node16, 576}, {tech.Node16, 1024},
}

// setupServer is one server set-up from cold caches: start the service,
// then one TSP query per fixed platform, which builds the platform and
// its influence matrix.
func setupServer() (*server, float64, error) {
	experiments.ResetPlatforms()
	thermal.ResetInfluenceCache()
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	for _, k := range warmPlatforms {
		r, err := s.do(http.MethodGet, fmt.Sprintf("/v1/tsp?node=%d&cores=%d&active=%d", int(k.node), k.cores, k.cores/2), nil)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("warm-up %v: status %d: %s", k, r.status, r.body)
		}
		if err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return s, msSince(t0) / 1000, nil
}

// setupRepeated runs the server set-up setupRepeats times and keeps the
// last server; the set-up time reported is the median.
func setupRepeated() (*server, []float64, error) {
	var times []float64
	var s *server
	for i := range setupRepeats {
		srv, secs, err := setupServer()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, secs)
		if i < setupRepeats-1 {
			if err := srv.close(); err != nil {
				return nil, nil, err
			}
		}
		s = srv
	}
	return s, times, nil
}
