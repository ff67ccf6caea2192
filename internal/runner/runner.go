// Package runner is the shared concurrency layer under the experiment
// sweeps, the memos and the daemon: a bounded worker pool with context
// cancellation and errgroup-style first-error-cancels-rest semantics,
// and a coalescing LRU cache, built on the standard library only (the
// module has no dependencies).
//
// The package offers three entry points:
//
//   - Map / MapN run a fixed set of independent items through a worker
//     pool and return the results in item order, regardless of completion
//     order, so parallel sweeps render byte-identically to a sequential
//     loop.
//   - Group is a lightweight errgroup clone for heterogeneous tasks that
//     do not fit the map shape.
//   - Cache is the one memo type: a bounded LRU with optional TTL whose
//     Do coalesces concurrent builds of a key into one (singleflight).
//
// Cancellation is cooperative: when one item fails (or the caller's
// context is cancelled), no further item is started and the context
// passed to the callbacks in flight is cancelled. Those are expected to
// check it between expensive phases; a callback that ignores it simply
// runs to completion, and the first error is still reported.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// DefaultWorkers is the pool size used when Options.Workers (or the
// workers argument of WithContext) is zero or negative: one worker per
// available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Options configures a Map/MapN run.
type Options struct {
	// Workers bounds the number of concurrently running callbacks.
	// Zero or negative means DefaultWorkers().
	Workers int
}

// Map runs fn over every item on a bounded worker pool and returns the
// outputs in item order. On failure it returns the error of the
// lowest-indexed item that genuinely failed; errors that merely report
// the cancellation triggered by an earlier failure (or by the caller's
// context) never mask the root cause. The first failure cancels the
// context seen by all other callbacks and stops dispatch. Items whose
// callback failed, was cancelled or never started hold their zero value
// in the returned slice.
//
// When every callback succeeds but the caller's context was cancelled
// mid-run, Map returns ctx.Err() so a timed-out run is never mistaken for
// a complete one.
func Map[In, Out any](ctx context.Context, items []In, opt Options, fn func(ctx context.Context, index int, item In) (Out, error)) ([]Out, error) {
	return MapN(ctx, len(items), opt, func(ctx context.Context, i int) (Out, error) {
		return fn(ctx, i, items[i])
	})
}

// MapN is Map for the common index-only case: it runs fn for every index
// in [0, n) and returns the n outputs in index order.
func MapN[Out any](ctx context.Context, n int, opt Options, fn func(ctx context.Context, index int) (Out, error)) ([]Out, error) {
	out := make([]Out, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu     sync.Mutex
		errIdx = -1
		first  error
	)
	record := func(i int, err error) {
		mu.Lock()
		if replaces(i, err, errIdx, first) {
			errIdx, first = i, err
		}
		mu.Unlock()
		cancel()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o, err := fn(cctx, i)
				if err != nil {
					record(i, err)
				} else {
					out[i] = o
				}
			}
		}()
	}
	for i := 0; i < n && cctx.Err() == nil; i++ {
		select {
		case next <- i:
		case <-cctx.Done():
		}
	}
	close(next)
	wg.Wait()

	if first != nil {
		return out, first
	}
	return out, ctx.Err()
}

// isCancellation reports whether err only relays a context cancellation
// rather than a genuine failure of the item itself.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// replaces decides whether the new error (i, err) should supersede the
// recorded one: genuine failures beat cancellation fallout, and within the
// same class the lowest index wins, keeping the reported error
// deterministic under arbitrary goroutine scheduling.
func replaces(i int, err error, oldIdx int, old error) bool {
	if old == nil {
		return true
	}
	if isCancellation(old) != isCancellation(err) {
		return isCancellation(old)
	}
	return i < oldIdx
}

// Group runs heterogeneous tasks with a shared concurrency bound and
// first-error-cancels-rest semantics, like golang.org/x/sync/errgroup
// with a limit. The zero value is not usable; construct with WithContext.
type Group struct {
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	sem     chan struct{}
	errOnce sync.Once
	err     error
}

// WithContext returns a Group bounded to `workers` concurrent tasks
// (<=0 means DefaultWorkers()) and the derived context that is cancelled
// when any task fails or Wait returns.
func WithContext(ctx context.Context, workers int) (*Group, context.Context) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	cctx, cancel := context.WithCancel(ctx)
	return &Group{ctx: cctx, cancel: cancel, sem: make(chan struct{}, workers)}, cctx
}

// Go schedules fn, blocking while the concurrency bound is saturated.
// fn receives the group context and should honor its cancellation.
func (g *Group) Go(fn func(ctx context.Context) error) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() {
			<-g.sem
			g.wg.Done()
		}()
		if err := fn(g.ctx); err != nil {
			g.errOnce.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

// Wait blocks until every scheduled task has returned, cancels the group
// context, and returns the first error recorded.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}
