package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket, lock-free histogram in the Prometheus
// cumulative-bucket style: observations are counted into the first
// bucket whose upper bound is >= the value, with an implicit +Inf
// bucket. Observe is safe for concurrent use (one atomic add plus a CAS
// loop for the sum), so the serving layer's hot path records latencies
// without a lock.
type Histogram struct {
	bounds  []float64      // ascending upper bounds, exclusive of +Inf
	counts  []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. Unsorted input is sorted; duplicate bounds are allowed but
// pointless. An empty bound list yields a single +Inf bucket.
func NewHistogram(bounds ...float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records v. NaN observations are dropped (they would poison
// the sum and match no bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a consistent-enough point-in-time view of a
// Histogram: per-bucket counts (non-cumulative, +Inf last), total count
// and sum. It marshals to JSON for the /metrics surface.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; the final bucket is +Inf and
	// carries no bound here.
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket observation counts, len(Bounds)+1.
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the bucket counts, interpolating linearly within
// the winning bucket — the same estimator Prometheus's
// histogram_quantile applies server-side, so the _quantile gauges on
// /metrics.prom agree with dashboard-side computation on the raw
// buckets. Conventions, matching Prometheus:
//
//   - the target rank is q·Count, resolved to the first bucket whose
//     cumulative count reaches it;
//   - the winning bucket's lower edge is the previous bound (0 for the
//     first bucket), its upper edge its own bound;
//   - ranks landing in the +Inf bucket return the highest finite bound
//     (the distribution's tail is unbounded, so the last finite edge is
//     the only defensible point estimate);
//   - an empty histogram, a histogram with no finite bounds, or a q
//     outside [0, 1] returns NaN.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, b := range s.Bounds {
		prev := cum
		cum += s.Counts[i]
		if float64(cum) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			if s.Counts[i] == 0 {
				return b
			}
			frac := (rank - float64(prev)) / float64(s.Counts[i])
			if frac < 0 {
				frac = 0
			}
			return lower + (b-lower)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot reads the current bucket counts and sum. Buckets are read
// without a global lock, so a snapshot taken during a burst may be off
// by in-flight observations — fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
