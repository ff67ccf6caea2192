package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported figure: the value the result line carries plus
// the samples it was derived from, so the report can show their median,
// quartiles and count.
type metric struct {
	name, unit string
	value      float64
	samples    []float64
}

// metricSet keeps metrics in insertion order.
type metricSet []metric

func (ms *metricSet) add(name, unit string, value float64, samples []float64) {
	*ms = append(*ms, metric{name: name, unit: unit, value: value, samples: samples})
}

// print writes one line per metric: value, then median, quartiles and
// sample count of the underlying samples.
func (ms metricSet) print(w io.Writer) {
	fmt.Fprintf(w, "%-36s %12s %-6s %12s %12s %12s %6s\n", "metric", "value", "unit", "median", "q1", "q3", "n")
	for _, m := range ms {
		if len(m.samples) == 0 {
			fmt.Fprintf(w, "%-36s %12.4f %-6s %12s %12s %12s %6d\n", m.name, m.value, m.unit, "-", "-", "-", 0)
			continue
		}
		fmt.Fprintf(w, "%-36s %12.4f %-6s %12.4f %12.4f %12.4f %6d\n", m.name, m.value, m.unit,
			median(m.samples), quantile(m.samples, 0.25), quantile(m.samples, 0.75), len(m.samples))
	}
}

// heapSampler polls the live heap (runtime/metrics /gc/heap/live:bytes,
// the heap marked live by the latest GC).
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB; written by the sampler goroutine until done
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		buf := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(buf)
			mb := float64(buf[0].Value.Uint64()) / (1 << 20)
			h.samples = append(h.samples, mb)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak and every sample in MiB.
// The peak is the 95th percentile of the samples: the live heap only
// changes when a GC ends, and the single largest mark depends on what
// happened to be in flight at that GC, so the maximum alone is mostly
// noise.
func (h *heapSampler) finish() (peak float64, samples []float64) {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.95), h.samples
}

// msSince returns the time elapsed since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
