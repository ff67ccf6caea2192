package service

import (
	"sync/atomic"
	"time"

	"darksim/internal/jobs"
	"darksim/internal/runner"
)

// latencyBucketsMS are the upper bounds (milliseconds) of the compute
// latency histogram; an implicit +Inf bucket catches the rest.
var latencyBucketsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

// Metrics holds the server's expvar-style counters. All fields are
// monotonic atomics except InFlight (a gauge); /metrics serves a JSON
// snapshot of them together with the result cache's own counters.
type Metrics struct {
	Requests      atomic.Int64 // HTTP requests received
	Computes      atomic.Int64 // underlying experiment computations started
	ComputeErrors atomic.Int64
	InFlight      atomic.Int64 // computations currently running

	latencyCount [10]atomic.Int64 // len(latencyBucketsMS)+1
	latencySumUS atomic.Int64     // total compute time, microseconds
}

// observe records one compute latency.
func (m *Metrics) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	m.latencyCount[i].Add(1)
	m.latencySumUS.Add(d.Microseconds())
}

// Bucket is one histogram cell of the snapshot: the count of computes
// with latency <= LE milliseconds (LE = 0 marks the +Inf bucket).
type Bucket struct {
	LE    float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// Snapshot is the marshalable state served by /metrics.
type Snapshot struct {
	Requests int64 `json:"requests"`
	Cache    struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Expired   int64 `json:"expired"`
		Size      int   `json:"size"`
	} `json:"cache"`
	Compute struct {
		Count            int64    `json:"count"`
		Errors           int64    `json:"errors"`
		InFlight         int64    `json:"inflight"`
		CoalescedWaiters int64    `json:"coalesced_waiters"`
		TotalMS          float64  `json:"total_ms"`
		LatencyMS        []Bucket `json:"latency_ms_buckets"`
	} `json:"compute"`
	// Runs is the async run runtime: queue depth/capacity, live gauges,
	// terminal counters, and the number of connected SSE subscribers.
	Runs jobs.Stats `json:"runs"`
}

// snapshot captures the counters; the result cache's counters and runs
// are sampled by the caller.
func (m *Metrics) snapshot(cache runner.CacheStats, runs jobs.Stats) Snapshot {
	var s Snapshot
	s.Requests = m.Requests.Load()
	s.Cache.Hits = cache.Hits
	s.Cache.Misses = cache.Misses
	s.Cache.Evictions = cache.Evictions
	s.Cache.Expired = cache.Expired
	s.Cache.Size = cache.Entries
	s.Compute.Count = m.Computes.Load()
	s.Compute.Errors = m.ComputeErrors.Load()
	s.Compute.InFlight = m.InFlight.Load()
	s.Compute.CoalescedWaiters = cache.Coalesced
	s.Compute.TotalMS = float64(m.latencySumUS.Load()) / 1000
	for i := range m.latencyCount {
		b := Bucket{Count: m.latencyCount[i].Load()}
		if i < len(latencyBucketsMS) {
			b.LE = latencyBucketsMS[i]
		}
		s.Compute.LatencyMS = append(s.Compute.LatencyMS, b)
	}
	s.Runs = runs
	return s
}
