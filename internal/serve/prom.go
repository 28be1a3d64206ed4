package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"bsmp"
	"bsmp/internal/obs"
)

// This file renders bsmpd's two metric surfaces: GET /metrics (JSON
// under "bsmp") and GET /metrics.prom (Prometheus text format, rendered
// by hand — the repository takes no client-library dependency). Both
// render the same three sources:
//
//   - the run registry, the one source of run telemetry: runs by
//     (source, scheme, state) and the latency (by scheme), queue-wait,
//     run-size and per-phase histograms, all counted at a record's
//     terminal transition, and the inflight_* gauges summed over the
//     running records;
//   - the counter table: every serving counter that is not a run-record
//     transition, plus the sweep-row latency histogram;
//   - sampled gauges: pool queue, kernel cache, memo store, registry
//     occupancy and live sweeps.
//
// Both endpoints iterate the whole counter table, so every counter
// renders (as 0) from boot and none can be incremented without being
// rendered.

// counter names one entry of the counter table.
type counter int

const (
	// request middleware
	ctrRequests counter = iota
	ctrResponses2xx
	ctrResponses4xx
	ctrResponses5xx
	ctrPanicsRecovered
	// /v1/run: lookups, coalescing and 504s; runs themselves are counted
	// by the registry
	ctrTracedRuns
	ctrCacheHits
	ctrCacheMisses
	ctrCoalesced
	ctrDeadlineTimeouts
	// /v1/sweep
	ctrSweeps
	ctrSweepsCancelled
	ctrSweepRows
	ctrSweepRowsCached
	ctrSweepRowsDeduped
	ctrSweepRowErrors
	ctrSweepQueueRetries
	// run event streams and shutdown
	ctrRunEventsStreams
	ctrDraining
	numCounters
)

// counterNames are the table's series names: keys on /metrics,
// bsmpd_<name> on /metrics.prom.
var counterNames = [numCounters]string{
	ctrRequests:          "requests",
	ctrResponses2xx:      "responses_2xx",
	ctrResponses4xx:      "responses_4xx",
	ctrResponses5xx:      "responses_5xx",
	ctrPanicsRecovered:   "panics_recovered",
	ctrTracedRuns:        "traced_runs",
	ctrCacheHits:         "cache_hits",
	ctrCacheMisses:       "cache_misses",
	ctrCoalesced:         "coalesced",
	ctrDeadlineTimeouts:  "deadline_timeouts",
	ctrSweeps:            "sweeps",
	ctrSweepsCancelled:   "sweeps_cancelled",
	ctrSweepRows:         "sweep_rows",
	ctrSweepRowsCached:   "sweep_rows_cached",
	ctrSweepRowsDeduped:  "sweep_rows_deduped",
	ctrSweepRowErrors:    "sweep_row_errors",
	ctrSweepQueueRetries: "sweep_queue_retries",
	ctrRunEventsStreams:  "run_events_streams",
	ctrDraining:          "draining",
}

// counterTable holds every serving counter that is not a run-record
// transition, one atomic per counter, and the completion latency of
// executed sweep rows.
type counterTable struct {
	n               [numCounters]atomic.Int64
	sweepRowLatency *obs.Histogram
}

func (t *counterTable) add(c counter) { t.n[c].Add(1) }

// scalar is one sampled gauge.
type scalar struct {
	name string
	v    int64
}

// gauges samples every scalar gauge, each source read once.
func (s *Server) gauges(memo bsmp.MemoStats) []scalar {
	runs, vertices, phases := s.registry.Inflight()
	live, retained := s.registry.Len()
	kEntries, kHits, kMisses, kEvictions := bsmp.KernelCacheStats()
	s.sweepMu.Lock()
	sweeps, pending := len(s.sweepsLive), int64(0)
	for p := range s.sweepsLive {
		pending += int64(p.total) - p.done.Load()
	}
	s.sweepMu.Unlock()
	return []scalar{
		{"inflight_runs", int64(runs)},
		{"inflight_vertices", vertices},
		{"inflight_phases", phases},
		{"queue_depth", s.pool.QueueDepth()},
		{"kernel_cache_entries", int64(kEntries)},
		{"kernel_cache_hits", kHits},
		{"kernel_cache_misses", kMisses},
		{"kernel_cache_evictions", kEvictions},
		{"memo_capacity", int64(memo.Capacity)},
		{"memo_entries", int64(memo.Entries)},
		{"memo_hits", memo.Hits},
		{"memo_misses", memo.Misses},
		{"memo_evictions", memo.Evictions},
		{"registry_live_runs", int64(live)},
		{"registry_retained_runs", int64(retained)},
		{"inflight_sweeps", int64(sweeps)},
		{"sweep_rows_pending", pending},
	}
}

// handleMetrics serves GET /metrics: every series as one JSON object
// under the "bsmp" key — scalars as numbers, histograms as snapshots,
// the memo store's per-(kind, level) rows as a list. The registry's run
// counts appear by terminal state: runs (done), runs_cancelled,
// runs_failed and runs_shed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	memo := bsmp.MemoStatsSnapshot()
	hists := s.registry.Hists()
	states := s.registry.CompletedCounts()
	m := map[string]any{
		"runs":                      states[obs.RunDone],
		"runs_cancelled":            states[obs.RunCancelled],
		"runs_failed":               states[obs.RunFailed],
		"runs_shed":                 states[obs.RunShed],
		"run_latency_seconds":       hists.Latency,
		"queue_wait_seconds":        hists.QueueWait,
		"run_vertices":              hists.Size,
		"sweep_row_latency_seconds": s.ctr.sweepRowLatency.Snapshot(),
		"memo_levels":               memo.Levels,
	}
	for c, name := range counterNames {
		m[name] = s.ctr.n[c].Load()
	}
	for _, g := range s.gauges(memo) {
		m[g.name] = g.v
	}
	writeJSON(w, http.StatusOK, map[string]any{"bsmp": m})
}

// handleMetricsProm serves GET /metrics.prom: the registry's run series
// and histograms, the sweep-row histogram, the memo store's per-level
// series, then the counter table as counters and the gauges. Lines are
// concatenated rather than formatted: the histograms alone are a few
// hundred lines.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	memo := bsmp.MemoStatsSnapshot()
	hists := s.registry.Hists()
	var b strings.Builder
	b.Grow(32 << 10)
	writePromHist(&b, "bsmpd_run_latency_seconds",
		"Wall time of done runs, by scheme, counted at each run record's terminal transition.", "scheme", hists.Latency)
	writePromHist(&b, "bsmpd_queue_wait_seconds",
		"Time runs spent from admission to a worker (or to giving up while queued).", "", map[string]obs.HistSnapshot{"": hists.QueueWait})
	writePromHist(&b, "bsmpd_run_vertices",
		"Guest size n*steps of done runs.", "", map[string]obs.HistSnapshot{"": hists.Size})
	writePromHist(&b, "bsmpd_run_phase_seconds",
		"Wall duration of completed schedule phases, by phase.", "phase", hists.Phases)
	writePromHist(&b, "bsmpd_sweep_row_latency_seconds",
		"Completion latency of executed /v1/sweep grid rows (cache hits excluded).", "", map[string]obs.HistSnapshot{"": s.ctr.sweepRowLatency.Snapshot()})
	b.WriteString("# HELP bsmpd_runs_total Runs by source, scheme and terminal state, counted at each run record's terminal transition.\n# TYPE bsmpd_runs_total counter\n")
	for _, c := range s.registry.RunCounts() {
		fmt.Fprintf(&b, "bsmpd_runs_total{source=%q,scheme=%q,state=%q} %d\n", c.Source, c.Scheme, c.State, c.Count)
	}
	b.WriteString("# HELP bsmpd_runs_active Live runs in the registry by lifecycle state and scheme.\n# TYPE bsmpd_runs_active gauge\n")
	for _, ac := range s.registry.ActiveCounts() {
		fmt.Fprintf(&b, "bsmpd_runs_active{state=%q,scheme=%q} %d\n", ac.State, ac.Scheme, ac.Count)
	}
	writePromMemoLevels(&b, memo.Levels)
	for c, name := range counterNames {
		b.WriteString("# TYPE bsmpd_" + name + " counter\nbsmpd_" + name + " " + strconv.FormatInt(s.ctr.n[c].Load(), 10) + "\n")
	}
	for _, g := range s.gauges(memo) {
		b.WriteString("# TYPE bsmpd_" + g.name + " gauge\nbsmpd_" + g.name + " " + strconv.FormatInt(g.v, 10) + "\n")
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// writePromMemoLevels renders the unified memo store's per-(kind, level)
// counters as labeled gauge series, one metric per counter.
func writePromMemoLevels(b *strings.Builder, levels []bsmp.MemoLevelStats) {
	if len(levels) == 0 {
		return
	}
	for _, m := range []struct {
		name, help string
		value      func(bsmp.MemoLevelStats) int64
	}{
		{"bsmpd_memo_level_entries", "Resident memo entries per (kind, size level).",
			func(l bsmp.MemoLevelStats) int64 { return int64(l.Entries) }},
		{"bsmpd_memo_level_hits", "Lifetime memo hits per (kind, size level).",
			func(l bsmp.MemoLevelStats) int64 { return l.Hits }},
		{"bsmpd_memo_level_misses", "Lifetime memo misses per (kind, size level).",
			func(l bsmp.MemoLevelStats) int64 { return l.Misses }},
		{"bsmpd_memo_level_evictions", "Lifetime memo evictions per (kind, size level).",
			func(l bsmp.MemoLevelStats) int64 { return l.Evictions }},
	} {
		b.WriteString("# HELP " + m.name + " " + m.help + "\n# TYPE " + m.name + " gauge\n")
		for _, l := range levels {
			b.WriteString(m.name + `{kind="` + l.Kind + `",level="` + strconv.Itoa(l.Level) + `"} ` + strconv.FormatInt(m.value(l), 10) + "\n")
		}
	}
}

// writePromHist renders one histogram family, one series per entry of
// series keyed by the value of label ("" for the single unlabelled
// series): cumulative buckets, sum and count, then p50/p95/p99
// estimates as the companion _quantile gauge family (linear
// interpolation within the winning bucket; empty series omitted).
func writePromHist(b *strings.Builder, name, help, label string, series map[string]obs.HistSnapshot) {
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// labels(k) is the series' label pair with a trailing comma, ready to
	// precede le or q; the family's series share one set of bounds.
	labels := func(k string) string {
		if label == "" {
			return ""
		}
		return label + "=" + strconv.Quote(k) + ","
	}
	var les []string
	b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " histogram\n")
	for _, k := range keys {
		snap, lb := series[k], labels(k)
		if les == nil {
			for _, bound := range snap.Bounds {
				les = append(les, promFloat(bound))
			}
			les = append(les, "+Inf")
		}
		var cum int64
		for i, le := range les {
			cum += snap.Counts[i]
			b.WriteString(name + "_bucket{" + lb + `le="` + le + `"} ` + strconv.FormatInt(cum, 10) + "\n")
		}
		if lb != "" {
			lb = "{" + lb[:len(lb)-1] + "}"
		}
		b.WriteString(name + "_sum" + lb + " " + promFloat(snap.Sum) + "\n" + name + "_count" + lb + " " + strconv.FormatInt(snap.Count, 10) + "\n")
	}
	typed := false
	for _, k := range keys {
		snap := series[k]
		if snap.Count == 0 {
			continue
		}
		if !typed {
			b.WriteString("# TYPE " + name + "_quantile gauge\n")
			typed = true
		}
		for _, q := range [...]string{"0.5", "0.95", "0.99"} {
			v, _ := strconv.ParseFloat(q, 64)
			b.WriteString(name + "_quantile{" + labels(k) + `q="` + q + `"} ` + promFloat(snap.Quantile(v)) + "\n")
		}
	}
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
