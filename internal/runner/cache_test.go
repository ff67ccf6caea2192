package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedBuild returns a build that counts its calls, blocks until gate
// closes, and then yields val.
func gatedBuild(builds *atomic.Int64, gate <-chan struct{}, val int) func() (int, error) {
	return func() (int, error) {
		builds.Add(1)
		<-gate
		return val, nil
	}
}

func TestCache(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"concurrent Do calls share one build", func(t *testing.T) {
			const n = 8
			c := NewCache[string, int](4, 0, nil)
			var builds atomic.Int64
			gate := make(chan struct{})
			outcomes := make(chan Outcome, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, o, err := c.Do(ctx, "k", gatedBuild(&builds, gate, 42))
					if err != nil || v != 42 {
						t.Errorf("Do = %d, %v; want 42", v, err)
					}
					outcomes <- o
				}()
			}
			waitFor(t, "every caller to join", func() bool { return c.Stats().Coalesced == n-1 })
			close(gate)
			wg.Wait()
			close(outcomes)
			got := map[Outcome]int{}
			for o := range outcomes {
				got[o]++
			}
			if builds.Load() != 1 || got[Miss] != 1 || got[Coalesced] != n-1 {
				t.Errorf("builds = %d, outcomes = %v; want 1 build, 1 miss, %d coalesced", builds.Load(), got, n-1)
			}
			if _, o, _ := c.Do(ctx, "k", gatedBuild(&builds, gate, 0)); o != Hit || builds.Load() != 1 {
				t.Errorf("after the build: outcome %q, builds %d; want a hit", o, builds.Load())
			}
			if st := c.Stats(); st.Hits != 1 || st.Misses != n || st.Entries != 1 {
				t.Errorf("stats = %+v", st)
			}
		}},
		{"distinct keys build concurrently", func(t *testing.T) {
			c := NewCache[string, int](4, 0, nil)
			var running atomic.Int64
			both := make(chan struct{})
			build := func() (int, error) {
				if running.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
					return 1, nil
				case <-time.After(10 * time.Second):
					return 0, errors.New("the other key's build never started")
				}
			}
			var wg sync.WaitGroup
			for _, k := range []string{"a", "b"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := c.Do(ctx, k, build); err != nil {
						t.Errorf("%s: %v", k, err)
					}
				}()
			}
			wg.Wait()
		}},
		{"a cancelled waiter returns early, the build still lands", func(t *testing.T) {
			c := NewCache[string, int](4, 0, nil)
			var builds atomic.Int64
			gate := make(chan struct{})
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, o, err := c.Do(cctx, "k", gatedBuild(&builds, gate, 7)); !errors.Is(err, context.Canceled) || o != Miss {
				t.Fatalf("cancelled waiter: outcome %q, err %v; want miss, context.Canceled", o, err)
			}
			close(gate)
			waitFor(t, "the detached build to land", func() bool { return c.Stats().Entries == 1 })
			if v, ok := c.Get("k"); !ok || v != 7 || builds.Load() != 1 {
				t.Errorf("Get = %d, %v after %d builds; want 7 from the one build", v, ok, builds.Load())
			}
		}},
		{"an error reaches the caller and is not stored", func(t *testing.T) {
			c := NewCache[string, int](4, 0, nil)
			boom := errors.New("boom")
			if _, _, err := c.Do(ctx, "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if c.Stats().Entries != 0 {
				t.Errorf("a failed build was stored")
			}
			v, o, err := c.Do(ctx, "k", func() (int, error) { return 3, nil })
			if err != nil || v != 3 || o != Miss {
				t.Errorf("rebuild: %d, %q, %v; want 3, miss, nil", v, o, err)
			}
		}},
		{"LRU order", func(t *testing.T) {
			c := NewCache[string, int](2, 0, nil)
			c.Put("a", 1)
			c.Put("b", 2)
			c.Get("a") // b becomes least recently used
			c.Put("c", 3)
			if _, ok := c.Get("b"); ok {
				t.Errorf("least recently used entry b survived")
			}
			for _, k := range []string{"a", "c"} {
				if _, ok := c.Get(k); !ok {
					t.Errorf("recently used entry %s was evicted", k)
				}
			}
			if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
				t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
			}
		}},
		{"TTL expiry on a fake clock is counted", func(t *testing.T) {
			now := time.Unix(1_000_000, 0)
			c := NewCache[string, int](4, time.Minute, func() time.Time { return now })
			c.Put("k", 1)
			now = now.Add(59 * time.Second)
			if _, ok := c.Get("k"); !ok {
				t.Fatalf("entry expired before its TTL")
			}
			now = now.Add(2 * time.Second)
			if _, ok := c.Get("k"); ok {
				t.Errorf("entry outlived its TTL")
			}
			if st := c.Stats(); st.Expired != 1 || st.Entries != 0 {
				t.Errorf("stats = %+v, want 1 expiry, 0 entries", st)
			}
		}},
		{"capacity <= 0 stores nothing but still coalesces", func(t *testing.T) {
			for _, capacity := range []int{0, -1} {
				c := NewCache[string, int](capacity, 0, nil)
				var builds atomic.Int64
				gate := make(chan struct{})
				done := make(chan Outcome, 2)
				for i := 0; i < 2; i++ {
					go func() {
						_, o, _ := c.Do(ctx, "k", gatedBuild(&builds, gate, 1))
						done <- o
					}()
				}
				waitFor(t, "the second caller to join", func() bool { return c.Stats().Coalesced == 1 })
				close(gate)
				<-done
				<-done
				c.Put("k", 2)
				if builds.Load() != 1 || c.Stats().Entries != 0 {
					t.Errorf("cap %d: builds = %d, len = %d; want 1 build, nothing stored", capacity, builds.Load(), c.Stats().Entries)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
