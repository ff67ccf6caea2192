// Package runner is the shared concurrency layer under the experiment
// sweeps, the memos and the daemon, built on the standard library only
// (the module has no dependencies).
//
// The package offers three entry points:
//
//   - Map / MapN run a fixed set of independent items through a worker
//     pool and return the results in item order, regardless of completion
//     order, so parallel sweeps render byte-identically to a sequential
//     loop. The first failure cancels the rest.
//   - Pool is the daemon's one set of compute slots: synchronous requests
//     (Do) and asynchronous runs (Go) wait for the same bounded slots, run
//     under the same deadline and drain in the same Close.
//   - Cache is the one memo type: a bounded LRU with optional TTL whose
//     Do coalesces concurrent builds of a key into one (singleflight).
//
// Cancellation is cooperative: a cancelled context stops work from being
// started, and the context passed to the callbacks in flight is
// cancelled. Those are expected to check it between expensive phases; a
// callback that ignores it simply runs to completion.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// DefaultWorkers is the pool size used when Options.Workers (or the
// workers argument of NewPool) is zero or negative: one worker per
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

// ErrClosed is what Pool.Do and Pool.Go return once Close began.
var ErrClosed = errors.New("runner: pool is shutting down")

// Pool is the one bounded set of compute slots every daemon computation
// takes, whether its caller waits for the result (Do) or hands it off
// (Go). It owns the three rules that work shares: at most `workers`
// functions run at once, each runs under the pool's deadline, and Close
// refuses new work and drains what was admitted. The zero value is not
// usable; construct with NewPool.
type Pool struct {
	slots   chan struct{}
	timeout time.Duration
	cause   error // context.Cause of a context whose deadline passed
	base    context.Context
	hurry   context.CancelFunc // cancels base once Close's deadline passed

	mu       sync.Mutex // guards closed; admitted.Add happens only under it
	closed   bool
	admitted sync.WaitGroup // Do and Go calls past admission, until fn returns
}

// NewPool returns a pool of `workers` slots (<=0 means DefaultWorkers())
// whose work each runs under a deadline of timeout from the moment it
// takes its slot (<=0: no deadline). A context whose deadline passed
// reports "timed out after <timeout>" as its context.Cause.
func NewPool(workers int, timeout time.Duration) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	base, hurry := context.WithCancel(context.Background())
	return &Pool{
		slots:   make(chan struct{}, workers),
		timeout: timeout,
		cause:   fmt.Errorf("timed out after %s", timeout),
		base:    base,
		hurry:   hurry,
	}
}

// Do waits for a slot, runs fn on the calling goroutine and returns its
// error, or ErrClosed without running fn once Close began.
func (p *Pool) Do(fn func(ctx context.Context) error) error {
	if err := p.acquire(context.Background()); err != nil {
		return err
	}
	defer p.release()
	ctx, cancel := p.deadline()
	defer cancel()
	return fn(ctx)
}

// Go waits for a slot on the calling goroutine, so a caller feeding the
// pool from a queue feels the back-pressure, then runs fn on a new
// goroutine. It returns without running fn: ErrClosed once Close began,
// or ctx.Err() once ctx is done before a slot frees. ctx bounds only
// that wait; fn's context derives from the pool's alone.
func (p *Pool) Go(ctx context.Context, fn func(ctx context.Context)) error {
	if err := p.acquire(ctx); err != nil {
		return err
	}
	go func() {
		defer p.release()
		ctx, cancel := p.deadline()
		defer cancel()
		fn(ctx)
	}()
	return nil
}

// acquire admits one piece of work and waits for its slot, or until ctx
// is done. Work still waiting when Close's deadline passes is refused.
func (p *Pool) acquire(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.admitted.Add(1)
	p.mu.Unlock()
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-p.base.Done():
		p.admitted.Done()
		return ErrClosed
	case <-ctx.Done():
		p.admitted.Done()
		return ctx.Err()
	}
}

func (p *Pool) release() {
	<-p.slots
	p.admitted.Done()
}

// deadline returns the context one piece of work runs under.
func (p *Pool) deadline() (context.Context, context.CancelFunc) {
	if p.timeout <= 0 {
		return p.base, func() {}
	}
	return context.WithTimeoutCause(p.base, p.timeout, p.cause)
}

// Close refuses new work and waits until every admitted piece has
// returned. If ctx expires first, Close cancels the contexts of the
// running work, refuses the work still waiting for a slot, waits for the
// rest all the same and returns ctx.Err().
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		p.admitted.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		p.hurry()
		<-idle
		return ctx.Err()
	}
}
