// Command bsmpbench is bsmp's benchmark. It drives the program's public
// entry points through three named workloads — an in-process bsmpd
// (serve.New with the daemon's defaults) behind a loopback listener for
// run-mix and sweep-heavy, and the exp battery for battery-quick —
// checks every output against a direct reference, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as one
// JSON object on the last line of standard output.
//
//	bash bsmpbench/run.sh --workload run-mix --seed 1 --seconds 10 --trace 0
//
// Each run is one process, so the process-wide memo and kernel caches
// start empty and the set-up time and live heap belong to one workload.
// Any failed op makes the command exit with status 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bsmp"
)

// setupReps is how many times a run repeats its set-up from cold;
// setup_s is the median.
const setupReps = 3

// workload is one named traffic mix. setup brings the program from a
// cold process state to ready-to-time (it must reset every process-wide
// cache it depends on, since it runs setupReps times); run drives the
// timed phase; layers adds the measurements only a traced run makes.
type workload interface {
	setup(ctx context.Context) error
	run(ctx context.Context, ph *phase) error
	layers(ctx context.Context, rep *report, plain, traced *phase) error
	close() error
}

var workloads = map[string]func(seed uint64, t *tally) workload{
	"run-mix":       func(seed uint64, t *tally) workload { return newRunMix(seed, t) },
	"sweep-heavy":   func(seed uint64, t *tally) workload { return newSweepHeavy(seed, t) },
	"battery-quick": func(seed uint64, t *tally) workload { return newBattery(seed, t, pinnedDigest()) },
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares,
// in report order; an untraced run prints exactly the first set and a
// traced run exactly the second.
var endToEnd = []string{"p50_ms", "p99_ms", "ops_per_s", "setup_s", "live_heap_mb"}

var perLayer = append(append([]string{
	"serve.hit_ms", "serve.miss_ms", "serve.reject_ms", "serve.overhead_ms", "serve.queue_ms",
	"serve.decode_us", "serve.encode_us", "serve.validate_us", "serve.cache_hit_ratio",
	"serve.sweep_cached_ms", "serve.pool_busy_ratio", "serve.residual_ms",
	"obs.runs_list_ms", "obs.metrics_prom_ms",
	"simulate.wall_ms", "simulate.plan_ms", "simulate.calibrate_ms", "simulate.block_ms",
	"simulate.block_replayed_ms", "simulate.schedule_ms.lockstep", "simulate.schedule_ms.theta",
	"simulate.calibrations", "simulate.memo_hit_ratio.kernel", "simulate.memo_hit_ratio.subtree",
	"simulate.memo_hit_ratio.analytic", "simulate.memo_evictions",
	"network.replay_ms", "network.ns_per_vertex", "network.pure_ns_per_vertex",
}, expMetricNames()...),
	"exp.work_ms", "exp.span_ms", "exp.parallelism", "exp.residual_ms",
	"runtime.alloc_mb_per_op", "runtime.gc_per_op", "runtime.gc_pause_ms", "runtime.peak_rss_mb",
	"trace_overhead", "attributed_share",
)

func expMetricNames() []string {
	var out []string
	for _, n := range expNames() {
		out = append(out, "exp."+n+"_ms")
	}
	return out
}

func main() {
	name := flag.String("workload", "", "workload: run-mix, sweep-heavy or battery-quick")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span file")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: bsmpbench --workload run-mix|sweep-heavy|battery-quick --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	code, err := run(*name, mk, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bsmpbench: %v\n", err)
	}
	os.Exit(code)
}

// run executes one workload run and prints its report; the exit code
// is 1 when any op failed or a check did not hold.
func run(name string, mk func(uint64, *tally) workload, seed uint64, dur time.Duration, traced bool, outDir string) (int, error) {
	ctx := context.Background()
	t := &tally{}
	w := mk(seed, t)
	defer w.close()
	rep := newReport()
	rep.printf("bsmpbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d go=%s",
		name, seed, dur.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())

	g := &gauge{}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return 1, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		g.read()
	}

	if !traced {
		ph, err := measure(ctx, w, dur, nil, g)
		if err != nil {
			return 1, err
		}
		endToEndReport(rep, ph, setups, g)
		countsReport(rep, ph)
		notes(w, rep, ph)
		// The live heap is read once the phase's own latency samples are
		// dropped, so it does not grow with the number of ops completed.
		ph.lat, ph.byClass = nil, nil
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		rep.set("live_heap_mb", float64(ms.HeapAlloc)/1e6, "MB", "HeapAlloc after a forced GC at the end of the timed phase")
	} else {
		// The traced run times half its budget untraced, as the base of
		// trace_overhead and of the counter and runtime deltas, and half
		// traced for the span-derived layer times.
		plain, err := measure(ctx, w, dur/2, nil, g)
		if err != nil {
			return 1, err
		}
		tr, err := measure(ctx, w, dur/2, &spanLog{}, g)
		if err != nil {
			return 1, err
		}
		if err := w.layers(ctx, rep, plain, tr); err != nil {
			return 1, err
		}
		rep.set("trace_overhead", ratio(median(tr.lat), median(plain.lat)), "ratio",
			fmt.Sprintf("traced p50 / untraced p50 (%d / %d ops)", len(tr.lat), len(plain.lat)))
		runtimeReport(rep, plain)
		countsReport(rep, plain)
		notes(w, rep, plain)
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return 1, err
		}
		if err := tr.spans.writeChrome(path); err != nil {
			return 1, fmt.Errorf("writing span file: %w", err)
		}
		rep.printf("span file %s (Chrome trace_event JSON): %s", path, tr.spans)
	}

	names := endToEnd
	if traced {
		names = perLayer
	}
	return rep.finish(t, names)
}

// notes prints what a workload adds to its report beyond the metrics:
// run-mix's class shares, the battery's memo-count repetition.
func notes(w workload, rep *report, ph *phase) {
	if n, ok := w.(interface{ notes(*report, *phase) }); ok {
		n.notes(rep, ph)
	}
}

// countsReport prints, as integers, the counts the phase's ratios are
// built from: memo hits, misses and evictions by kind, kernel
// calibrations, and the daemon's result-cache, coalescing and run
// counters where the workload serves.
func countsReport(rep *report, ph *phase) {
	d := ph.memo
	for _, kind := range []string{"kernel", "subtree", "analytic"} {
		c := d[kind]
		rep.printf("  count memo.%-8s hits %d misses %d evictions %d", kind, c[0], c[1], c[2])
	}
	rep.printf("  count kernel calibrations %d (kernel-memo misses)", d["kernel"][1])
	if _, ok := ph.sums["counter.runs"]; ok {
		h, m := ph.sums["counter.cache_hits"], ph.sums["counter.cache_misses"]
		rep.printf("  count result cache hits %.0f of %.0f /v1/run lookups; sweep rows cached %.0f; coalesced %.0f; registry records (runs executed) %.0f",
			h, h+m, ph.sums["counter.sweep_rows_cached"], ph.sums["counter.coalesced"], ph.sums["counter.runs"])
	}
}

// phase is one timed stretch of a workload: the op latencies by class,
// the wall it took, and before/after snapshots of the counters the
// program exports. spans is nil for an untraced phase.
type phase struct {
	dur     time.Duration // requested length
	spans   *spanLog
	g       *gauge // read between ops
	mu      sync.Mutex
	lat     []float64            // op wall, ms
	byClass map[string][]float64 // op wall by class, ms
	samples map[string][]float64 // per-op layer samples (median reported)
	sums    map[string]float64   // additive layer totals
	elapsed time.Duration
	busy    time.Duration // elapsed minus the gauge readings taken during it
	cpu     time.Duration // process CPU time over the phase, gauge readings left out

	mem0, mem1 runtime.MemStats
	// memo is the memo store's hit, miss and eviction counts by kind
	// over the phase. measure fills it from snapshots unless the
	// workload accumulated it itself, as the battery does to leave out
	// the store resets between its passes.
	memo map[string][3]int64
}

func (ph *phase) record(class string, ms float64) {
	ph.mu.Lock()
	ph.lat = append(ph.lat, ms)
	ph.byClass[class] = append(ph.byClass[class], ms)
	ph.mu.Unlock()
}

func (ph *phase) sample(name string, v float64) {
	ph.mu.Lock()
	ph.samples[name] = append(ph.samples[name], v)
	ph.mu.Unlock()
}

func (ph *phase) add(name string, v float64) {
	ph.mu.Lock()
	ph.sums[name] += v
	ph.mu.Unlock()
}

func (ph *phase) addAll(m map[string]float64) {
	ph.mu.Lock()
	for k, v := range m {
		ph.sums[k] += v
	}
	ph.mu.Unlock()
}

func (ph *phase) ops() int { return len(ph.lat) }

// memoDelta returns the memo store's hit, miss and eviction counts by
// kind ("kernel", "subtree", "analytic") between snapshots a and b.
func memoDelta(a, b bsmp.MemoStats) map[string][3]int64 {
	out := map[string][3]int64{"kernel": {}, "subtree": {}, "analytic": {}}
	for _, l := range b.Levels {
		c := out[l.Kind]
		c[0] += l.Hits
		c[1] += l.Misses
		c[2] += l.Evictions
		out[l.Kind] = c
	}
	for _, l := range a.Levels {
		c := out[l.Kind]
		c[0] -= l.Hits
		c[1] -= l.Misses
		c[2] -= l.Evictions
		out[l.Kind] = c
	}
	return out
}

// measure runs one timed phase of w, bracketed by counter snapshots.
// A forced collection first gives every phase the same starting heap.
func measure(ctx context.Context, w workload, dur time.Duration, spans *spanLog, g *gauge) (*phase, error) {
	ph := &phase{dur: dur, spans: spans, g: g, byClass: map[string][]float64{},
		samples: map[string][]float64{}, sums: map[string]float64{}}
	runtime.GC()
	runtime.ReadMemStats(&ph.mem0)
	memo0 := bsmp.MemoStatsSnapshot()
	spent0, spentCPU0 := g.spent, g.spentCPU
	c0, t0 := cpuTime(), time.Now()
	err := w.run(ctx, ph)
	ph.elapsed = time.Since(t0)
	ph.busy = ph.elapsed - (g.spent - spent0)
	ph.cpu = cpuTime() - c0 - (g.spentCPU - spentCPU0)
	if ph.memo == nil {
		ph.memo = memoDelta(memo0, bsmp.MemoStatsSnapshot())
	}
	runtime.ReadMemStats(&ph.mem1)
	if err != nil {
		return nil, err
	}
	if ph.ops() == 0 {
		return nil, errors.New("timed phase completed no op")
	}
	return ph, nil
}

// endToEndReport sets the end-to-end time metrics, scaled to the
// nominal host speed by the run's gauge factor f; the raw values are
// printed beside them.
func endToEndReport(rep *report, ph *phase, setups []float64, g *gauge) {
	f := g.factor()
	rep.printf("%s", g)
	n := len(ph.lat)
	p50, setup := median(ph.lat), median(setups)
	p99, q := tail(ph.lat)
	ops := float64(n) / ph.busy.Seconds()
	rep.set("p50_ms", p50*f, "ms", fmt.Sprintf("median op latency, n=%d (raw %.4f ms)", n, p50))
	rep.set("p99_ms", p99*f, "ms", fmt.Sprintf("read at p%.1f, the highest percentile with >= 10 of n=%d samples beyond it (raw %.4f ms)", 100*q, n, p99))
	rep.set("ops_per_s", ops/f, "1/s", fmt.Sprintf("%d ops in %.3f s of op time (raw %.4f/s)", n, ph.busy.Seconds(), ops))
	cpu := float64(ph.cpu.Nanoseconds()) / 1e6 / float64(n)
	rep.printf("  cpu per op %.4f ms scaled, %.4f ms raw (process user+sys CPU of client, daemon, engines and GC: %.3f s over %d ops)",
		cpu*f, cpu, ph.cpu.Seconds(), n)
	rep.set("setup_s", setup*f, "s", fmt.Sprintf("median of %d cold set-ups, raw %s s", len(setups), fmtList(setups, "%.3f")))
	for _, c := range sortedKeys(ph.byClass) {
		v := ph.byClass[c]
		rep.printf("  class %-12s n=%-7d p50=%.4f ms", c, len(v), median(v))
	}
}

// runtimeReport adds the Go runtime's allocation and collection deltas
// over an untraced phase, per op, and the process's peak RSS.
func runtimeReport(rep *report, ph *phase) {
	ops := float64(ph.ops())
	rep.set("runtime.alloc_mb_per_op", float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/1e6/ops, "MB",
		fmt.Sprintf("TotalAlloc delta over %d untraced ops", ph.ops()))
	rep.set("runtime.gc_per_op", float64(ph.mem1.NumGC-ph.mem0.NumGC)/ops, "count",
		fmt.Sprintf("%d collections over %d untraced ops", ph.mem1.NumGC-ph.mem0.NumGC, ph.ops()))
	rep.set("runtime.gc_pause_ms", float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs)/1e6/ops, "ms",
		"stop-the-world pause per untraced op")
	var ru syscall.Rusage
	rss := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	rep.set("runtime.peak_rss_mb", rss, "MB", "peak resident set (getrusage maxrss, MiB)")
}

// tally counts attempted and failed ops across the run; the first few
// failure messages are kept for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op records one attempted op, failed when err is non-nil.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) failRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ratio(float64(t.failed), float64(t.attempted))
}

// report collects the human-readable lines printed before the result
// and the metric values the result carries.
type report struct {
	lines   []string
	metrics map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) printf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// set records a metric and its report line; note says how it was
// measured (sample counts, the counts behind a ratio).
func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{v, unit}
	r.printf("%-34s %14.6g %-6s %s", name, v, unit, note)
}

// finish prints the report and the result line carrying exactly the
// named metrics, and returns the exit code.
func (r *report) finish(t *tally, names []string) (int, error) {
	t.mu.Lock()
	attempted, failed, errs := t.attempted, t.failed, t.errs
	t.mu.Unlock()
	r.printf("fail_ratio %g (%d failed / %d attempted)", t.failRatio(), failed, attempted)
	for _, e := range errs {
		r.printf("  failure: %s", e)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, map[string]metric{}}
	var missing []string
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out.Metrics[n] = m
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	if len(missing) > 0 {
		return 1, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1, fmt.Errorf("%d of %d ops failed", failed, attempted)
	}
	return 0, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, ", ")
}

// resetMemo empties the process-wide memo store (kernel calibrations,
// subtree and analytic records) the way a fresh process starts, keeping
// its capacity.
func resetMemo() {
	c := bsmp.MemoCapacity()
	bsmp.SetMemoCapacity(0)
	bsmp.SetMemoCapacity(c)
}
