package runner

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// Outcome reports how Cache.Do produced its value. The strings are the
// values of darksimd's X-Darksim-Cache header.
type Outcome string

const (
	Hit       Outcome = "hit"       // served from the cache
	Miss      Outcome = "miss"      // this call started the build
	Coalesced Outcome = "coalesced" // this call joined a build in flight
)

// CacheStats is a point-in-time view of a Cache's counters.
type CacheStats struct {
	Hits      int64 // lookups served from the cache
	Misses    int64 // lookups that were not, coalesced ones included
	Coalesced int64 // Do calls that joined a build in flight
	Evictions int64 // entries dropped by the capacity bound
	Expired   int64 // entries dropped on lookup after their TTL
	Entries   int   // stored entries, expired ones not yet reaped included
}

// Cache is a bounded LRU memo with an optional TTL that coalesces
// concurrent builds of one key: every memo in the repository (factored
// platforms, influence matrices, served results) is one. Build errors are
// never stored. A capacity of zero or less stores nothing, but Do still
// coalesces concurrent builds.
type Cache[K comparable, V any] struct {
	capacity int
	ttl      time.Duration
	now      func() time.Time

	mu      sync.Mutex
	lru     *list.List // front = most recently used; values are *entry[K, V]
	items   map[K]*list.Element
	flights map[K]*flight[V]
	stats   CacheStats
}

type entry[K comparable, V any] struct {
	key     K
	val     V
	expires time.Time // zero: never
}

// flight is one build in progress that any number of Do calls wait on.
type flight[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// NewCache returns a cache holding at most capacity entries, each for
// ttl (zero or less: until evicted) on the clock now (nil: time.Now).
func NewCache[K comparable, V any](capacity int, ttl time.Duration, now func() time.Time) *Cache[K, V] {
	if now == nil {
		now = time.Now
	}
	return &Cache[K, V]{
		capacity: capacity,
		ttl:      ttl,
		now:      now,
		lru:      list.New(),
		items:    make(map[K]*list.Element),
		flights:  make(map[K]*flight[V]),
	}
}

// Get returns the live value stored for key.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key, now)
}

// Put stores val for key, evicting least recently used entries beyond
// the capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val, now)
}

// Do returns the value for key: the stored one, or the result of the one
// build in flight for key, which the call either joins or starts. The
// build runs detached from every caller. Each caller waits on its own
// ctx: one that gives up returns ctx.Err() while the build runs on for
// the other waiters and the cache. A build error reaches every waiter
// and is not stored, so the next Do builds again. The build's goroutine
// ends when build returns.
func (c *Cache[K, V]) Do(ctx context.Context, key K, build func() (V, error)) (V, Outcome, error) {
	now := c.clock()
	c.mu.Lock()
	v, ok := c.getLocked(key, now)
	outcome := Hit
	var f *flight[V]
	if !ok {
		if f = c.flights[key]; f != nil {
			outcome = Coalesced
			c.stats.Coalesced++
		} else {
			outcome = Miss
			f = &flight[V]{done: make(chan struct{})}
			c.flights[key] = f
			go c.run(key, f, build)
		}
	}
	c.mu.Unlock()
	if ok {
		return v, outcome, nil
	}
	select {
	case <-f.done:
		return f.val, outcome, f.err
	case <-ctx.Done():
		var zero V
		return zero, outcome, ctx.Err()
	}
}

// run executes one build, stores a success unless Reset forgot the
// flight meanwhile, and only then wakes the waiters, so a waiter's next
// lookup already hits.
func (c *Cache[K, V]) run(key K, f *flight[V], build func() (V, error)) {
	f.val, f.err = build()
	now := c.clock()
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
		if f.err == nil {
			c.putLocked(key, f.val, now)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	return st
}

// Reset drops every entry, forgets the builds in flight and zeroes the
// counters. Callers already waiting on a build still get its result, but
// it is not stored.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	clear(c.items)
	clear(c.flights)
	c.stats = CacheStats{}
}

// clock reads the time entries expire by; without a TTL nothing
// expires and the clock is never consulted. Callers read it before
// taking the lock, so a caller-supplied clock never runs under it.
func (c *Cache[K, V]) clock() time.Time {
	if c.ttl <= 0 {
		return time.Time{}
	}
	return c.now()
}

// getLocked looks key up at time now and counts a hit or a miss. An
// expired entry is unlinked.
func (c *Cache[K, V]) getLocked(key K, now time.Time) (v V, ok bool) {
	if el, found := c.items[key]; found {
		e := el.Value.(*entry[K, V])
		if e.expires.IsZero() || !now.After(e.expires) {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			return e.val, true
		}
		c.unlinkLocked(el)
		c.stats.Expired++
	}
	c.stats.Misses++
	return v, false
}

// putLocked stores val for key at time now, evicting least recently
// used entries beyond the capacity.
func (c *Cache[K, V]) putLocked(key K, val V, now time.Time) {
	if c.capacity <= 0 {
		return
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = now.Add(c.ttl)
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		e.val, e.expires = val, expires
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&entry[K, V]{key: key, val: val, expires: expires})
	for c.lru.Len() > c.capacity {
		c.unlinkLocked(c.lru.Back())
		c.stats.Evictions++
	}
}

func (c *Cache[K, V]) unlinkLocked(el *list.Element) {
	e := c.lru.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
}
