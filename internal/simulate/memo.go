package simulate

import (
	"context"
	"math"
	"sort"
	"sync"

	"bsmp/internal/cost"
	"bsmp/internal/lattice"
)

// This file is the unified memo store behind both caches the engines
// keep: the measured-kernel cache of the multiprocessor engine (formerly
// a dedicated boundedKernelCache) and the subtree-record memo of the
// blocked recursion, exact and analytic. One bounded-FIFO store with one shared,
// settable capacity serves all kinds; per-(kind, level) hit/miss/
// eviction statistics feed the daemon's /metrics and /metrics.prom.
//
// Eviction is discoverability-only: values are referenced by Go
// pointers, so a subtree record evicted while linked as a child of a
// larger record stays alive and replayable — eviction can never corrupt
// an already-published trace, it only forces a future re-derivation.

// memoKind partitions the store's key space.
type memoKind int

const (
	// memoKernel entries are measured multiprocessor kernels (float64).
	memoKernel memoKind = iota
	// memoSubtree entries are exact-trace subtree records of the blocked
	// recursion on the exact machine (*subtreeRecord with a trace).
	memoSubtree
	// memoAnalytic entries are summed-delta subtree records of the
	// recursion on the charge-only machine (*subtreeRecord without a
	// trace).
	memoAnalytic
)

func (k memoKind) String() string {
	switch k {
	case memoKernel:
		return "kernel"
	case memoSubtree:
		return "subtree"
	case memoAnalytic:
		return "analytic"
	default:
		return "unknown"
	}
}

// DefaultMemoCapacity is the store's initial entry bound — the seed's
// hardcoded kernel-cache capacity, now shared by every memo kind and
// adjustable via SetMemoCapacity (the -memo-cap flag / bsmpd config).
const DefaultMemoCapacity = 1024

// memoID is the store-wide key: the kind plus the kind's own comparable
// key value (kernelKey or subtreeKey).
type memoID struct {
	kind memoKind
	key  any
}

// levelID buckets statistics by kind and size level (log2 of the span a
// record covers; kernels use log2 of the calibrated span).
type levelID struct {
	kind  memoKind
	level int
}

type levelCounters struct {
	entries               int
	hits, misses, evicted int64
}

type memoVal struct {
	v     any
	level int
}

type memoStore struct {
	mu       sync.Mutex
	capacity int
	entries  map[memoID]memoVal
	order    []memoID // insertion order: the FIFO eviction queue
	stats    map[levelID]*levelCounters
}

// memo is the process-wide store shared by every engine.
var memo = &memoStore{
	capacity: DefaultMemoCapacity,
	entries:  make(map[memoID]memoVal),
	stats:    make(map[levelID]*levelCounters),
}

func (c *memoStore) counters(id levelID) *levelCounters {
	lc := c.stats[id]
	if lc == nil {
		lc = &levelCounters{}
		c.stats[id] = lc
	}
	return lc
}

// load returns the entry for (kind, key), counting a hit or miss at the
// given level. With the store disabled (capacity <= 0) every load misses
// without touching the counters.
func (c *memoStore) load(kind memoKind, level int, key any) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return nil, false
	}
	val, ok := c.entries[memoID{kind, key}]
	lc := c.counters(levelID{kind, level})
	if ok {
		lc.hits++
		return val.v, true
	}
	lc.misses++
	return nil, false
}

// store publishes v under (kind, key), evicting oldest entries beyond
// the capacity. A no-op when the store is disabled.
func (c *memoStore) store(kind memoKind, level int, key any, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	id := memoID{kind, key}
	if old, ok := c.entries[id]; ok {
		c.entries[id] = memoVal{v, old.level}
		return
	}
	c.evictLocked(c.capacity - 1)
	c.entries[id] = memoVal{v, level}
	c.order = append(c.order, id)
	c.counters(levelID{kind, level}).entries++
}

// evictLocked drops oldest entries until at most n remain.
func (c *memoStore) evictLocked(n int) {
	for len(c.entries) > n && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		if val, ok := c.entries[oldest]; ok {
			delete(c.entries, oldest)
			lc := c.counters(levelID{oldest.kind, val.level})
			lc.entries--
			lc.evicted++
		}
	}
}

// setCapacity adjusts the bound, evicting down if needed. n <= 0
// disables the store entirely (every load misses, every store drops).
func (c *memoStore) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	if n <= 0 {
		c.evictLocked(0)
		return
	}
	c.evictLocked(n)
}

// MemoLevelStats is one (kind, level) row of the memo store statistics.
type MemoLevelStats struct {
	// Kind is "kernel", "subtree" or "analytic".
	Kind string `json:"kind"`
	// Level is the size level: log2 of the span the entries cover.
	Level int `json:"level"`
	// Entries is the current entry count of the bucket.
	Entries int `json:"entries"`
	// Hits, Misses and Evictions are lifetime counters.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// MemoStats is a snapshot of the unified memo store.
type MemoStats struct {
	// Capacity is the shared entry bound; <= 0 means the store is
	// disabled.
	Capacity int `json:"capacity"`
	// Entries is the current total entry count.
	Entries int `json:"entries"`
	// Hits, Misses and Evictions are lifetime totals across all kinds.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Levels holds the per-(kind, level) breakdown, sorted by kind then
	// level, buckets that were never touched omitted.
	Levels []MemoLevelStats `json:"levels"`
}

// MemoStatsSnapshot reports the unified memo store's capacity, totals,
// and per-(kind, level) statistics.
func MemoStatsSnapshot() MemoStats {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	out := MemoStats{Capacity: memo.capacity, Entries: len(memo.entries)}
	for id, lc := range memo.stats {
		out.Hits += lc.hits
		out.Misses += lc.misses
		out.Evictions += lc.evicted
		out.Levels = append(out.Levels, MemoLevelStats{
			Kind: id.kind.String(), Level: id.level,
			Entries: lc.entries, Hits: lc.hits, Misses: lc.misses, Evictions: lc.evicted,
		})
	}
	sort.Slice(out.Levels, func(i, j int) bool {
		if out.Levels[i].Kind != out.Levels[j].Kind {
			return out.Levels[i].Kind < out.Levels[j].Kind
		}
		return out.Levels[i].Level < out.Levels[j].Level
	})
	return out
}

// SetMemoCapacity adjusts the shared entry bound of the unified memo
// store (kernels and subtree records alike), evicting oldest entries if
// the store currently exceeds it. A bound <= 0 disables memoization:
// every lookup misses and nothing is published — the off switch behind
// the -memo-cap flag.
func SetMemoCapacity(n int) { memo.setCapacity(n) }

// MemoCapacity reports the current shared entry bound.
func MemoCapacity() int {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	return memo.capacity
}

// KernelCacheStats reports the kernel-kind entry count and lifetime
// hit/miss/eviction counters of the unified memo store — the historical
// kernel-cache gauges on bsmpd's /metrics keep their meaning.
func KernelCacheStats() (entries int, hits, misses, evictions int64) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for id, lc := range memo.stats {
		if id.kind != memoKernel {
			continue
		}
		entries += lc.entries
		hits += lc.hits
		misses += lc.misses
		evictions += lc.evicted
	}
	return entries, hits, misses, evictions
}

// memoLevel is the statistics level of a span: floor(log2(span)),
// clamped at 0.
func memoLevel(span int) int {
	l := 0
	for span > 1 {
		span >>= 1
		l++
	}
	return l
}

// subtreeRecord is one memoized recursion subtree: everything a
// congruent site needs to skip the recursion while leaving the meter and
// the address tables in the exact state a real execution would have.
type subtreeRecord struct {
	// trace is the exact charge sequence (exact-machine records); nil for
	// charge-only records, which replay dt/ledger as one summed delta.
	trace *cost.Trace
	// dt and ledger are the interval's clock advance and per-category
	// charge delta (charge-only records).
	dt     cost.Time
	ledger cost.Ledger
	// space is the subtree's workspace requirement (spaceNeeded).
	space int
	// addrs holds the produced images' addresses Mem(v, tb+1) in column
	// order, then the live-out broadcast addresses in the order of
	// dag.Surface.Live. They are child-frame absolute (the child
	// workspace is always [0, space)), so they are valid verbatim at
	// every congruent site.
	addrs []int32
}

// newSubtreeRecord completes r, a finished child's cost record, with the
// addresses of the child's products: its images looked up in mem in
// cols' order, then its live-outs looked up in bcast in live's order,
// in one exactly sized list. It declines (ok = false) when a product has
// no address or an address does not fit an int32, so an oversized
// workspace costs a memo miss, never a truncated address.
func newSubtreeRecord(r subtreeRecord, cols []lattice.Column, live []lattice.Point,
	mem, bcast func(lattice.Point) (int, bool)) (*subtreeRecord, bool) {
	r.addrs = make([]int32, 0, len(cols)+len(live))
	add := func(a int, ok bool) bool {
		if !ok || a < 0 || a > math.MaxInt32 {
			return false
		}
		r.addrs = append(r.addrs, int32(a))
		return true
	}
	for _, s := range cols {
		if !add(mem(memKey(s.Pos, s.Tb+1))) {
			return nil, false
		}
	}
	for _, v := range live {
		if !add(bcast(v)) {
			return nil, false
		}
	}
	return &r, true
}

// rebind binds a replayed child's products to the record's addresses at
// a congruent site: cols and live are the site's geometry, which
// congruence makes the recorded one's.
func (r *subtreeRecord) rebind(cols []lattice.Column, live []lattice.Point,
	mem, bcast func(lattice.Point, int)) {
	for i, s := range cols {
		mem(memKey(s.Pos, s.Tb+1), int(r.addrs[i]))
	}
	for i, v := range live {
		bcast(v, int(r.addrs[len(cols)+i]))
	}
}

// memoOffKey marks a context that opts out of subtree memoization.
type memoOffKey struct{}

// WithoutMemo returns a context under which the blocked engines run with
// subtree memoization disabled: every congruent subtree recurses for
// real, exactly as the pre-memo engine did. The golden bit-identity
// tests compare default (memo-on) runs against WithoutMemo runs.
func WithoutMemo(ctx context.Context) context.Context {
	return context.WithValue(ctx, memoOffKey{}, true)
}

// memoEnabled reports whether ctx allows subtree memoization.
func memoEnabled(ctx context.Context) bool {
	off, _ := ctx.Value(memoOffKey{}).(bool)
	return !off
}
