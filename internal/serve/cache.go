package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Cache is a mutex-guarded LRU over fully-keyed query results. The key
// is the complete request tuple — scheme, d, n, p, m, steps, guest,
// seed, and every SchemeConfig knob — so two requests share an entry
// only when their simulations would be bit-identical (everything in the
// simulator is deterministic, which is what makes result caching sound
// at all).
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses uint64
}

type cacheEntry struct {
	key string
	val any
}

// NewCache builds an LRU holding up to capacity entries; capacity < 1
// disables caching (every Get misses, Add is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached value for key, refreshing its recency.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	c.misses++
	return nil, false
}

// Add inserts (or refreshes) key, evicting the least recently used entry
// when over capacity.
func (c *Cache) Add(key string, val any) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// Len reports the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// flightGroup coalesces concurrent calls with the same key into one
// execution: the first caller (the leader) runs fn, every concurrent
// duplicate blocks until the leader finishes and shares its result. A
// waiter whose context expires abandons the wait (the leader still
// completes and fills the cache). This is the storm-absorber in front of
// the worker pool: a thousand identical in-flight queries cost one
// simulation slot.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
	dups int
}

// Do executes fn once per key among concurrent callers. It returns fn's
// value and error, and whether the result was shared from another
// caller's execution. A leader's cancellation belongs to the leader's
// caller: a waiter whose own ctx is live calls again when the leader's
// call ends in context.Canceled, leading a new execution or joining a
// newer one (the key is gone before done closes). A leader's deadline
// stays shared, since a waiter has no more of its own budget left than
// the leader had.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (any, error)) (any, error, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			if errors.Is(c.err, context.Canceled) && ctx.Err() == nil {
				return g.Do(ctx, key, fn)
			}
			return c.val, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
