package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), items, Options{Workers: 8}, func(_ context.Context, i, item int) (int, error) {
		// Stagger completion so late indices tend to finish first.
		time.Sleep(time.Duration((len(items)-i)%7) * time.Millisecond)
		return item * item, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if o != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, o, i*i)
		}
	}
}

func TestMapNBoundsWorkers(t *testing.T) {
	var mu sync.Mutex
	active, peak := 0, 0
	_, err := MapN(context.Background(), 40, Options{Workers: 3}, func(context.Context, int) (struct{}, error) {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Errorf("peak concurrency %d exceeds worker bound 3", peak)
	}
}

func TestMapFirstErrorCancelsRest(t *testing.T) {
	sentinel := errors.New("boom")
	start := time.Now()
	_, err := MapN(context.Background(), 20, Options{Workers: 4}, func(ctx context.Context, i int) (int, error) {
		if i == 3 {
			return 0, fmt.Errorf("item %d: %w", i, sentinel)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Second):
			return 0, errors.New("cancellation never arrived")
		}
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the genuine failure", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v; remaining items were not cut short", elapsed)
	}
}

func TestMapGenuineErrorBeatsCancellationFallout(t *testing.T) {
	// The genuine failure sits at a HIGH index; lower-indexed items fail
	// with cancellation fallout afterwards. The genuine one must win.
	sentinel := errors.New("root cause")
	release := make(chan struct{})
	_, err := MapN(context.Background(), 8, Options{Workers: 8}, func(ctx context.Context, i int) (int, error) {
		if i == 7 {
			close(release)
			return 0, sentinel
		}
		<-release
		<-ctx.Done()
		return 0, fmt.Errorf("item %d: %w", i, ctx.Err())
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want root cause to beat cancellation fallout", err)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	// Several genuine failures: the lowest index must be reported no
	// matter which goroutine records first.
	for trial := 0; trial < 10; trial++ {
		_, err := MapN(context.Background(), 10, Options{Workers: 10}, func(_ context.Context, i int) (int, error) {
			return 0, fmt.Errorf("fail-%d", i)
		})
		if err == nil || err.Error() != "fail-0" {
			t.Fatalf("err = %v, want fail-0", err)
		}
	}
}

func TestMapExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapN(ctx, 5, Options{}, func(ctx context.Context, i int) (int, error) {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("point %d: %w", i, err)
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 5 {
		t.Fatalf("len(out) = %d", len(out))
	}
}

func TestMapContextErrorWhenCallbacksIgnoreIt(t *testing.T) {
	// Callbacks that ignore ctx all succeed, but a cancelled caller
	// context must still surface so a timed-out run is not mistaken for
	// a complete one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapN(ctx, 3, Options{}, func(context.Context, int) (int, error) { return 1, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapStopsDispatchAfterCancellation(t *testing.T) {
	// Callbacks that ignore ctx must not keep being started once an item
	// has failed or the caller's context is done: with one worker and
	// item 0 failing, at most the index already handed over races the
	// cancellation.
	var calls atomic.Int64
	_, err := MapN(context.Background(), 100, Options{Workers: 1}, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, errors.New("fail-0")
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail-0" {
		t.Fatalf("err = %v, want fail-0", err)
	}
	if got := calls.Load(); got > 2 {
		t.Errorf("%d callbacks ran after item 0 failed, want at most 2", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls.Store(0)
	if _, err := MapN(ctx, 100, Options{Workers: 1}, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 1, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("%d callbacks ran under a context cancelled before the call, want 0", got)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), nil, Options{}, func(context.Context, int, string) (int, error) {
		t.Fatal("callback must not run")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestPoolSlotBoundAcrossDoAndGo pins the one bound: synchronous Do
// callers and handed-off Go work wait for the same slots.
func TestPoolSlotBoundAcrossDoAndGo(t *testing.T) {
	p := NewPool(2, 0)
	var mu sync.Mutex
	active, peak, ran := 0, 0, 0
	work := func(context.Context) {
		mu.Lock()
		active++
		ran++
		peak = max(peak, active)
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
	}
	var callers sync.WaitGroup
	for i := 0; i < 4; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			if err := p.Do(func(ctx context.Context) error { work(ctx); return nil }); err != nil {
				t.Error(err)
			}
		}()
		if err := p.Go(context.Background(), work); err != nil {
			t.Fatal(err)
		}
	}
	callers.Wait()
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran != 8 || peak > 2 {
		t.Errorf("ran %d pieces at peak concurrency %d, want 8 within the 2 slots", ran, peak)
	}
}

func TestPoolRefusesWorkAfterClose(t *testing.T) {
	p := NewPool(1, 0)
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := p.Do(func(context.Context) error { ran = true; return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close = %v, want ErrClosed", err)
	}
	if err := p.Go(context.Background(), func(context.Context) { ran = true }); !errors.Is(err, ErrClosed) {
		t.Errorf("Go after Close = %v, want ErrClosed", err)
	}
	if ran {
		t.Error("refused work ran")
	}
}

// TestPoolCloseDeadlineCancelsAndWaits pins the drain: at Close's
// deadline the running work's context is cancelled, work still waiting
// for a slot is refused, and Close returns only after the running work
// did. A Go caller's own context bounds its wait for a slot too.
func TestPoolCloseDeadlineCancelsAndWaits(t *testing.T) {
	p := NewPool(1, 0)
	started := make(chan struct{})
	var returned atomic.Bool
	var seen error
	if err := p.Go(context.Background(), func(ctx context.Context) {
		close(started)
		<-ctx.Done()
		seen = ctx.Err()
		time.Sleep(20 * time.Millisecond) // a straggler finishing its phase
		returned.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	// A Go caller that gives up stops waiting for the slot.
	gaveUp, giveUp := context.WithCancel(context.Background())
	giveUp()
	if err := p.Go(gaveUp, func(context.Context) { t.Error("work whose caller gave up ran") }); !errors.Is(err, context.Canceled) {
		t.Errorf("Go after its caller gave up = %v, want context.Canceled", err)
	}
	waiter := make(chan error, 1)
	go func() {
		waiter <- p.Do(func(context.Context) error { return errors.New("waiting work ran") })
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue for the slot

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
	if !returned.Load() {
		t.Error("Close returned before the running work did")
	}
	if !errors.Is(seen, context.Canceled) {
		t.Errorf("running work saw %v, want its context cancelled", seen)
	}
	if err := <-waiter; !errors.Is(err, ErrClosed) {
		t.Errorf("waiting Do = %v, want ErrClosed", err)
	}
}

// TestPoolDeadlineNamesItsLimit pins the one deadline: each piece of
// work's context expires timeout after it took its slot, with a cause
// naming the limit; a pool without a timeout sets no deadline.
func TestPoolDeadlineNamesItsLimit(t *testing.T) {
	p := NewPool(1, 10*time.Millisecond)
	var cause error
	err := p.Do(func(ctx context.Context) error {
		<-ctx.Done()
		cause = context.Cause(ctx)
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do = %v, want deadline exceeded", err)
	}
	if cause == nil || cause.Error() != "timed out after 10ms" {
		t.Errorf("cause = %v, want %q", cause, "timed out after 10ms")
	}
	if err := NewPool(1, 0).Do(func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			return errors.New("deadline set on a pool without a timeout")
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}
