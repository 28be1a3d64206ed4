package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"bsmp"
	"bsmp/internal/exp"
	"bsmp/internal/obs"
)

// pinned is the SHA-256 of the quick battery's tables at the commit the
// benchmark was defined on; every pass must reproduce it.
//
//go:embed battery_quick.digest
var pinned string

func pinnedDigest() string { return strings.TrimSpace(pinned) }

// experiments is the battery's E-* functions in battery order, each
// timed on its own by a traced pass.
var experiments = []struct {
	name string
	fn   func(context.Context, exp.Scale) (*exp.Table, error)
}{
	{"P1", exp.P1}, {"ISA", exp.ISA}, {"T2", exp.T2}, {"T3", exp.T3}, {"T3D2", exp.T3D2},
	{"T4", exp.T4}, {"T5", exp.T5}, {"T1D2", exp.T1D2}, {"D3", exp.D3}, {"D3Multi", exp.D3Multi},
	{"MM", exp.MM}, {"SStar", exp.SStar}, {"Ablations", exp.Ablations}, {"Levels", exp.Levels},
	{"Coop", exp.Coop}, {"Pipe", exp.Pipe}, {"MPrime", exp.MPrime}, {"Brent", exp.Brent},
	{"Theta", exp.Theta}, {"Fault", exp.Fault}, {"Registry", exp.Registry},
}

// expSpanCap bounds each experiment's tracer: enough for the quick
// battery's deepest blocked recursion. Dropped spans are reported and
// mark the layer times incomplete.
const expSpanCap = 1 << 17

var quick = exp.Scale{Quick: true}

// battery is the experiment workload: passes of the quick battery on
// GOMAXPROCS workers, the memo store emptied before each pass as a
// fresh cmd/experiments -quick process starts.
type battery struct {
	t      *tally
	pinned string
	counts []map[string][3]int64 // memo hits, misses, evictions by kind, per pass
}

func newBattery(seed uint64, t *tally, pinned string) *battery {
	// The battery's inputs are fixed; the seed names the run only.
	return &battery{t: t, pinned: pinned}
}

func (w *battery) setup(ctx context.Context) error {
	_, _, err := w.pass(ctx)
	return err
}

func (w *battery) close() error { return nil }

// digest hashes the tables exactly as cmd/experiments prints them, so
// `go run ./cmd/experiments -quick | grep -v '^ran' | sha256sum`
// reproduces it.
func digest(tables []*exp.Table) string {
	h := sha256.New()
	for _, t := range tables {
		h.Write([]byte(t.Format() + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *battery) checkDigest(tables []*exp.Table) error {
	if got := digest(tables); got != w.pinned {
		return fmt.Errorf("battery tables hash to %s, pinned %s", got, w.pinned)
	}
	return nil
}

// pass runs exp.AllContext once from an empty memo store and checks its
// tables against the pinned digest. It records the pass's memo counts,
// taken after the store was emptied.
func (w *battery) pass(ctx context.Context) (time.Time, time.Time, error) {
	resetMemo()
	m0 := bsmp.MemoStatsSnapshot()
	t0 := time.Now()
	tables, err := exp.AllContext(ctx, quick)
	t1 := time.Now()
	w.counts = append(w.counts, memoDelta(m0, bsmp.MemoStatsSnapshot()))
	if err == nil {
		err = w.checkDigest(tables)
	}
	return t0, t1, err
}

func (w *battery) run(ctx context.Context, ph *phase) error {
	deadline := time.Now().Add(ph.dur)
	ph.memo = map[string][3]int64{}
	for time.Now().Before(deadline) {
		ph.g.readN(readingsPerOp)
		var t0, t1 time.Time
		var err error
		if ph.spans == nil {
			t0, t1, err = w.pass(ctx)
			for k, c := range w.counts[len(w.counts)-1] {
				sum := ph.memo[k]
				for i := range c {
					sum[i] += c[i]
				}
				ph.memo[k] = sum
			}
		} else {
			t0, t1, err = w.tracedPass(ctx, ph)
		}
		w.t.op(err)
		if err == nil {
			ph.record("battery", float64(t1.Sub(t0).Nanoseconds())/1e6)
		}
	}
	return nil
}

// tracedPass runs the battery as exp.AllContext does — the experiments
// on GOMAXPROCS workers in battery order, then the serial figures — but
// calls each experiment itself, under its own tracer, so each gets a
// span with the engines' spans beneath it.
func (w *battery) tracedPass(ctx context.Context, ph *phase) (time.Time, time.Time, error) {
	resetMemo()
	n := len(experiments)
	tables := make([]*exp.Table, n)
	nodes := make([]*node, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for lane := 0; lane < min(runtime.GOMAXPROCS(0), n); lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				tr := obs.NewTracerCap(expSpanCap)
				s := time.Now()
				tables[i], errs[i] = experiments[i].fn(bsmp.WithTracer(ctx, tr), quick)
				e := time.Now()
				nd := newNode("exp:"+experiments[i].name, s, e)
				epoch := tr.Epoch().UnixNano()
				for _, sp := range tr.Roots() {
					nd.add(fromObs(sp, epoch))
				}
				ph.add("vertices", replayVertices(tr.Roots()))
				nodes[i] = nd
				if d := tr.Dropped(); d > 0 {
					ph.add("dropped."+experiments[i].name, float64(d))
				}
			}
		}()
	}
	for i := range experiments {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	fs := time.Now()
	figs, err := exp.Figures()
	t1 := time.Now()
	for _, e := range errs {
		if e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return t0, t1, err
	}
	root := newNode("op:battery", t0, t1).add(nodes...).add(newNode("exp:Figures", fs, t1))
	for _, nd := range root.kids {
		ph.sample(strings.TrimPrefix(nd.name, "exp:"), float64(nd.end-nd.start)/1e6)
	}
	self := map[string]float64{}
	selfTimes(root, self)
	ph.addAll(self)
	ph.add("residual_ms", float64(root.self())/1e6) // pass wall no experiment span covers
	ph.add("wall_ms", float64(t1.Sub(t0).Nanoseconds())/1e6)
	ph.spans.add(fmt.Sprintf("pass-%d", t0.UnixNano()), 0, root)
	return t0, t1, w.checkDigest(append(tables, figs...))
}

func (w *battery) layers(ctx context.Context, rep *report, plain, tr *phase) error {
	var work, span float64
	for _, name := range expNames() {
		v := median(tr.samples[name])
		work += v
		span = max(span, v)
		note := fmt.Sprintf("p50 wall over %d traced passes", len(tr.samples[name]))
		if d := tr.sums["dropped."+name]; d > 0 {
			note += fmt.Sprintf("; incomplete: its tracer dropped %.0f spans", d)
		}
		rep.set("exp."+name+"_ms", v, "ms", note)
	}
	rep.set("exp.work_ms", work, "ms", "T1: sum of the exp.<Fn>_ms")
	rep.set("exp.span_ms", span, "ms", "Tinf: the largest exp.<Fn>_ms")
	p50 := median(plain.lat)
	rep.set("exp.parallelism", work/p50, "ratio",
		fmt.Sprintf("T1 / untraced pass p50 %.3f ms; bound max(Tinf, T1/%d) plus the serial figures tail", p50, runtime.GOMAXPROCS(0)))
	rep.set("exp.residual_ms", ratio(tr.sums["residual_ms"], float64(tr.ops())), "ms",
		fmt.Sprintf("pass wall not covered by an experiment span, per pass over %d passes", tr.ops()))
	rep.set("attributed_share", 1-ratio(tr.sums["residual_ms"], tr.sums["wall_ms"]), "ratio", "1 - residual share of traced pass wall")
	engineLayers(rep, tr, float64(tr.ops()), "pass")
	notApplicable(rep, "network.pure_ns_per_vertex", "ns", "sweep-heavy only")
	memoLayers(rep, plain)
	for _, n := range []string{"serve.hit_ms", "serve.miss_ms", "serve.reject_ms", "serve.overhead_ms", "serve.queue_ms",
		"serve.sweep_cached_ms", "serve.residual_ms", "obs.runs_list_ms", "obs.metrics_prom_ms", "simulate.wall_ms"} {
		notApplicable(rep, n, "ms", "no serving in the battery")
	}
	for _, n := range []string{"serve.decode_us", "serve.encode_us", "serve.validate_us"} {
		notApplicable(rep, n, "us", "no serving in the battery")
	}
	notApplicable(rep, "serve.cache_hit_ratio", "ratio", "no serving in the battery")
	notApplicable(rep, "serve.pool_busy_ratio", "ratio", "no serving in the battery")
	return nil
}

// notes reports the per-pass memo count repetition in every run.
func (w *battery) notes(rep *report, ph *phase) { w.reportRepeats(rep) }

// expNames names the battery's timed calls: every experiment in battery
// order, then the serial figures.
func expNames() []string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.name)
	}
	return append(out, "Figures")
}

// reportRepeats reports whether every pass of the run — set-up, untraced
// and traced — counted exactly the same memo hits, misses and evictions
// per kind: a later claim may rest on a count only if it repeats.
func (w *battery) reportRepeats(rep *report) {
	patterns := map[string]int{}
	for _, c := range w.counts {
		patterns[fmt.Sprintf("kernel %v, subtree %v, analytic %v", c["kernel"], c["subtree"], c["analytic"])]++
	}
	rep.printf("  memo counts per pass repeat exactly across %d untraced passes: %t", len(w.counts), len(patterns) == 1)
	for _, p := range sortedKeys(patterns) {
		rep.printf("    %d passes counted hits/misses/evictions %s", patterns[p], p)
	}
}
