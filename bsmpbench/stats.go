package main

import (
	"math"
	"sort"
)

// tailRank is the 1-based rank, among n sorted samples, of the op tail
// the benchmark reports: p99 once at least ten samples lie beyond it,
// otherwise the highest percentile that still leaves ten samples beyond
// it. Below 20 samples no percentile above the median qualifies and the
// rank is 0 (report the median instead). A tail read from fewer samples
// is one outlier, not a tail.
func tailRank(n int) int {
	if n < 20 {
		return 0
	}
	p99 := (99*n + 99) / 100 // ceil(0.99·n) in integers
	return min(p99, n-10)
}

// median returns the median of xs (the mean of the two middle samples
// for an even count), NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the tail latency of xs by the tailRank rule together
// with the percentile it was read at (0.5 when it falls back to the
// median).
func tail(xs []float64) (value, q float64) {
	r := tailRank(len(xs))
	if r == 0 {
		return median(xs), 0.5
	}
	return sortedCopy(xs)[r-1], float64(r) / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is 0 (a ratio over no attempts
// is reported beside its zero counts, never as NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a closed-open span of wall time in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns how much of [lo, hi) the union of ivs covers.
// Intervals may overlap (sweep rows run side by side on the pool's
// workers, experiments on the battery's), so child durations are never
// simply summed.
func unionLen(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}
