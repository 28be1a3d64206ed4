package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"bsmp"
	"bsmp/internal/serve"
)

// runMixClients is run-mix's closed-loop client count: bsmpd's callers
// each wait for their reply, and two keep both cores of the reference
// host busy.
const runMixClients = 2

// runMix is the serving workload: 2 closed-loop clients, one keep-alive
// connection each, sending a seeded mix of cached and executed /v1/run
// requests, invalid tuples and dashboard reads to one in-process bsmpd.
type runMix struct {
	seed    uint64
	t       *tally
	u       *universe
	refs    []outcome // direct reference per universe tuple
	d       *daemon
	clients []*http.Client
	streams []*stream
}

func newRunMix(seed uint64, t *tally) *runMix {
	return &runMix{seed: seed, t: t, u: buildUniverse(seed)}
}

// setup starts a fresh daemon on an empty memo store, runs every tuple
// of the universe directly (paying every kernel calibration) and sends
// each hot tuple once so the hit class hits from its first op.
func (w *runMix) setup(ctx context.Context) error {
	if err := w.close(); err != nil {
		return err
	}
	resetMemo()
	d, err := startDaemon()
	if err != nil {
		return err
	}
	w.d = d
	first := w.refs == nil
	if first {
		w.refs = make([]outcome, len(w.u.tuples))
	}
	for i, req := range w.u.tuples {
		if err := bsmp.ValidateParams(req.Scheme, req.D, req.N, req.P, req.M, req.Steps, schemeConfig(req)); err != nil {
			return fmt.Errorf("universe tuple %s: %w", describe(req), err)
		}
		o, err := direct(ctx, req)
		if err != nil {
			return err
		}
		if first {
			w.refs[i] = o
		} else if err := w.refs[i].match(o); err != nil {
			return fmt.Errorf("direct run of %s not reproducible: %w", describe(req), err)
		}
	}
	w.clients = w.clients[:0]
	w.streams = w.streams[:0]
	for c := 0; c < runMixClients; c++ {
		w.clients = append(w.clients, newClient())
		w.streams = append(w.streams, newStream(w.u, w.seed, c))
	}
	for i := 0; i < w.u.hot; i++ {
		o := runOp(classHit, w.u.tuples[i], i, "")
		x, err := roundTrip(w.clients[0], o.method, w.d.base+o.path, o.body)
		if err != nil {
			return err
		}
		if _, err := w.check(o, x); err != nil {
			return fmt.Errorf("warming hot tuple %s: %w", describe(w.u.tuples[i]), err)
		}
	}
	return nil
}

func (w *runMix) close() error {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.d == nil {
		return nil
	}
	err := w.d.stop()
	w.d = nil
	return err
}

// answer is the part of a /v1/run reply the benchmark checks.
type answer struct {
	outcome
	RunID  string `json:"run_id"`
	Cached bool   `json:"cached"`
}

// check verifies one op's reply and returns the latency class it falls
// in: hits and misses by the reply's cached flag, dashboard reads by
// endpoint.
func (w *runMix) check(o op, x exchange) (string, error) {
	switch o.class {
	case classHit, classMiss:
		if x.status != http.StatusOK {
			return "", fmt.Errorf("%s: status %d: %.200s", o.body, x.status, x.body)
		}
		var a answer
		if err := json.Unmarshal(x.body, &a); err != nil {
			return "", fmt.Errorf("%s: %w", o.body, err)
		}
		if err := w.refs[o.tuple].match(a.outcome); err != nil {
			return "", fmt.Errorf("%s: %w", o.body, err)
		}
		if a.Cached {
			return classHit, nil
		}
		return classMiss, nil
	case classInvalid:
		return "reject", checkRejection(x, o.field)
	default:
		if x.status != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", o.path, x.status)
		}
		if strings.HasPrefix(o.path, "/metrics.prom") {
			if !bytes.Contains(x.body, []byte("bsmpd_")) {
				return "", fmt.Errorf("GET %s: no bsmpd_ series", o.path)
			}
			return "metrics_prom", nil
		}
		var runs serve.RunsResponse
		if err := json.Unmarshal(x.body, &runs); err != nil {
			return "", fmt.Errorf("GET %s: %w", o.path, err)
		}
		if len(runs.Runs) > 50 || runs.Total < len(runs.Runs) {
			return "", fmt.Errorf("GET %s: %d runs of total %d", o.path, len(runs.Runs), runs.Total)
		}
		return "runs_list", nil
	}
}

// checkRejection verifies a structured 400 of kind param naming field.
func checkRejection(x exchange, field string) error {
	if x.status != http.StatusBadRequest {
		return fmt.Errorf("invalid tuple answered %d, want 400: %.200s", x.status, x.body)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(x.body, &eb); err != nil {
		return fmt.Errorf("400 body: %w", err)
	}
	if eb.Error.Kind != "param" || eb.Error.Param == nil || eb.Error.Param.Field != field {
		return fmt.Errorf("400 %+v does not name field %q", eb.Error, field)
	}
	return nil
}

// gaugeEvery is how long run-mix's clients run between two gauge
// readings.
const gaugeEvery = 100 * time.Millisecond

// run drives the closed loop until the phase's time is up, pausing both
// clients for a gauge reading every gaugeEvery; each client finishes
// the op it has in flight.
func (w *runMix) run(ctx context.Context, ph *phase) error {
	end := time.Now().Add(ph.dur)
	before, err := counters(w.clients[0], w.d.base)
	if err != nil {
		return err
	}
	for time.Now().Before(end) {
		deadline := time.Now().Add(gaugeEvery)
		if deadline.After(end) {
			deadline = end
		}
		var wg sync.WaitGroup
		errs := make([]error, len(w.clients))
		for c := range w.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if err := w.step(c, ph); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		ph.g.read()
	}
	after, err := counters(w.clients[0], w.d.base)
	if err != nil {
		return err
	}
	for k, v := range after {
		ph.add("counter."+k, v-before[k])
	}
	return nil
}

// step sends client c's next op. A wrong answer counts as a failed op;
// only a broken benchmark (an unreadable registry record) is an error.
func (w *runMix) step(c int, ph *phase) error {
	o := w.streams[c].next()
	ph.add("stream."+o.class, 1)
	x, err := roundTrip(w.clients[c], o.method, w.d.base+o.path, o.body)
	class := o.class
	if err == nil {
		class, err = w.check(o, x)
	}
	w.t.op(err)
	if err != nil {
		return nil
	}
	ph.record(class, x.ms())
	if ph.spans == nil {
		return nil
	}
	return w.traceOp(c, o, class, x, ph)
}

// traceOp attributes one completed op: the registry record of an
// executed run supplies its queue and execute spans, and the benchmark
// times its own decode, validation and encode calls on the op's bodies.
func (w *runMix) traceOp(c int, o op, class string, x exchange, ph *phase) error {
	root := newNode("op:"+class, x.start, x.end)
	id := fmt.Sprintf("c%d-%d", c, x.start.UnixNano())
	if class == classMiss {
		var a answer
		if err := json.Unmarshal(x.body, &a); err != nil {
			return err
		}
		info, err := record(w.clients[c], w.d.base, a.RunID)
		if err != nil {
			return fmt.Errorf("registry record %s: %w", a.RunID, err)
		}
		q, e := recordNodes(info)
		root.add(q, e)
		id = a.RunID
		ph.sample("serve.overhead_ms", x.ms()-info.QueueMS-info.WallMS)
		ph.sample("serve.queue_ms", info.QueueMS)
		ph.sample("simulate.wall_ms", info.WallMS)
		self := map[string]float64{}
		selfTimes(e, self)
		ph.addAll(self)
		ph.add("vertices", replayVertices(info.Trace))
		ph.add("executed", 1)
	}
	resid := float64(root.self()) / 1e6 // op wall no child span covers
	ph.add("residual_ms", resid)
	ph.add("residual_ms."+class, resid)
	ph.add("wall_ms."+class, float64(root.end-root.start)/1e6)
	ph.spans.add(id, c, root)
	if o.method != http.MethodPost {
		return nil
	}
	return w.benchCalls(c, id, o, x, ph)
}

// benchCalls times the serving layer's decode, validate and encode
// steps from outside: json decoding of the op's body into
// serve.RunRequest with the handler's decoder settings,
// bsmp.ValidateParams on the result, and encoding of the decoded
// serve.RunResponse of a 200.
func (w *runMix) benchCalls(c int, id string, o op, x exchange, ph *phase) error {
	t0 := time.Now()
	dec := json.NewDecoder(bytes.NewReader(o.body))
	dec.DisallowUnknownFields()
	var req serve.RunRequest
	err := dec.Decode(&req)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("decoding the op's own body: %w", err)
	}
	_ = bsmp.ValidateParams(req.Scheme, req.D, req.N, req.P, req.M, req.Steps, schemeConfig(req)) // invalid ops fail here by design
	t2 := time.Now()
	ph.sample("serve.decode_us", float64(t1.Sub(t0).Nanoseconds())/1e3)
	ph.sample("serve.validate_us", float64(t2.Sub(t1).Nanoseconds())/1e3)
	ph.spans.add(id, c, newNode("bench:decode", t0, t1))
	ph.spans.add(id, c, newNode("bench:validate", t1, t2))
	if x.status != http.StatusOK {
		return nil
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(x.body, &resp); err != nil {
		return err
	}
	t3 := time.Now()
	err = json.NewEncoder(io.Discard).Encode(&resp)
	t4 := time.Now()
	if err != nil {
		return err
	}
	ph.sample("serve.encode_us", float64(t4.Sub(t3).Nanoseconds())/1e3)
	ph.spans.add(id, c, newNode("bench:encode", t3, t4))
	return nil
}

// layers reports run-mix's per-layer metrics: latencies by class and
// registry-derived serving splits from the traced phase, program
// counters over the untraced one.
func (w *runMix) layers(ctx context.Context, rep *report, plain, tr *phase) error {
	classP50(rep, tr, "serve.hit_ms", classHit, "cached /v1/run")
	classP50(rep, tr, "serve.miss_ms", classMiss, "executed /v1/run")
	classP50(rep, tr, "serve.reject_ms", "reject", "invalid-tuple 400s")
	classP50(rep, tr, "obs.runs_list_ms", "runs_list", "GET /v1/runs?limit=50")
	classP50(rep, tr, "obs.metrics_prom_ms", "metrics_prom", "GET /metrics.prom")
	for _, m := range []struct{ name, unit, what string }{
		{"serve.overhead_ms", "ms", "executed op wall - record queue_ms - record wall_ms"},
		{"serve.queue_ms", "ms", "registry record queue_ms"},
		{"simulate.wall_ms", "ms", "registry record wall_ms per executed run"},
		{"serve.decode_us", "us", "json decode of the op body into serve.RunRequest"},
		{"serve.validate_us", "us", "bsmp.ValidateParams on the decoded request"},
		{"serve.encode_us", "us", "json encode of the returned serve.RunResponse"},
	} {
		v := tr.samples[m.name]
		rep.set(m.name, median(v), m.unit, fmt.Sprintf("p50 of %s, n=%d", m.what, len(v)))
	}
	hits, misses := tr.sums["counter.cache_hits"], tr.sums["counter.cache_misses"]
	rep.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio",
		fmt.Sprintf("/metrics cache_hits %.0f / lookups %.0f (traced phase)", hits, hits+misses))
	rep.printf("  counts (traced phase, /metrics): runs %.0f, coalesced %.0f, cache_hits %.0f, cache_misses %.0f",
		tr.sums["counter.runs"], tr.sums["counter.coalesced"], hits, misses)
	notApplicable(rep, "serve.sweep_cached_ms", "ms", "sweep-heavy only")
	notApplicable(rep, "serve.pool_busy_ratio", "ratio", "sweep-heavy only")
	engineLayers(rep, tr, tr.sums["executed"], "executed run")
	notApplicable(rep, "network.pure_ns_per_vertex", "ns", "sweep-heavy only")
	memoLayers(rep, plain)
	servedAttribution(rep, tr)
	noExp(rep)
	return nil
}

// notes prints the stream's class shares, so a second seed's mix can
// be compared with the first.
func (w *runMix) notes(rep *report, ph *phase) {
	var total float64
	for _, q := range quota {
		total += ph.sums["stream."+q.class]
	}
	for _, q := range quota {
		n := ph.sums["stream."+q.class]
		rep.printf("  stream share %-10s %6.2f%% (%.0f of %.0f ops sent)", q.class, 100*ratio(n, total), n, total)
	}
}

// classP50 sets a metric to the traced phase's p50 latency of one op
// class.
func classP50(rep *report, ph *phase, name, class, what string) {
	v := ph.byClass[class]
	rep.set(name, median(v), "ms", fmt.Sprintf("p50 of %s ops, n=%d", what, len(v)))
}

// notApplicable reports a layer a workload does not exercise as 0.
func notApplicable(rep *report, name, unit, why string) {
	rep.set(name, 0, unit, "not exercised here: "+why)
}

// engineLayers reports the engines' self times from the registry span
// trees, per op of the given kind.
func engineLayers(rep *report, ph *phase, ops float64, per string) {
	for _, name := range []string{"simulate.plan_ms", "simulate.calibrate_ms", "simulate.block_ms",
		"simulate.block_replayed_ms", "simulate.schedule_ms.lockstep", "simulate.schedule_ms.theta", "network.replay_ms"} {
		rep.set(name, ratio(ph.sums[name], ops), "ms",
			fmt.Sprintf("span self time per %s (%.3f ms over %.0f)", per, ph.sums[name], ops))
	}
	rep.set("network.ns_per_vertex", ratio(ph.sums["network.replay_ms"]*1e6, ph.sums["vertices"]), "ns",
		fmt.Sprintf("replay self time / %.0f guest vertices (n*steps)", ph.sums["vertices"]))
}

// memoLayers reports the memo store's counter deltas over an untraced
// phase, per op, with the counts beside every ratio.
func memoLayers(rep *report, ph *phase) {
	ops := float64(ph.ops())
	d := ph.memo
	for _, kind := range []string{"kernel", "subtree", "analytic"} {
		c := d[kind]
		rep.set("simulate.memo_hit_ratio."+kind, ratio(float64(c[0]), float64(c[0]+c[1])), "ratio",
			fmt.Sprintf("%d hits / %d lookups, %d evictions over %d untraced ops", c[0], c[0]+c[1], c[2], ph.ops()))
	}
	ev := d["kernel"][2] + d["subtree"][2] + d["analytic"][2]
	rep.set("simulate.memo_evictions", float64(ev)/ops, "count", fmt.Sprintf("%d evictions over %d untraced ops", ev, ph.ops()))
	rep.set("simulate.calibrations", float64(d["kernel"][1])/ops, "count",
		fmt.Sprintf("%d kernel-memo misses (calibrations) over %d untraced ops", d["kernel"][1], ph.ops()))
}

// servedAttribution reports the unattributed share of served ops: op
// wall minus the union of the spans the registry records account for.
func servedAttribution(rep *report, ph *phase) {
	var wall float64
	for _, c := range sortedKeys(ph.byClass) {
		cw := ph.sums["wall_ms."+c]
		wall += cw
		rep.printf("  attributed share %-12s %.4f (residual %.3f of %.3f ms)",
			c, 1-ratio(ph.sums["residual_ms."+c], cw), ph.sums["residual_ms."+c], cw)
	}
	rep.set("serve.residual_ms", ratio(ph.sums["residual_ms"], float64(ph.ops())), "ms",
		fmt.Sprintf("op wall not covered by a child span, per op over %d traced ops", ph.ops()))
	rep.set("attributed_share", 1-ratio(ph.sums["residual_ms"], wall), "ratio", "1 - residual share of all traced op wall")
	notApplicable(rep, "exp.residual_ms", "ms", "battery-quick only")
}

// noExp reports the battery's per-experiment metrics as not exercised.
func noExp(rep *report) {
	for _, n := range expMetricNames() {
		notApplicable(rep, n, "ms", "battery-quick only")
	}
	notApplicable(rep, "exp.work_ms", "ms", "battery-quick only")
	notApplicable(rep, "exp.span_ms", "ms", "battery-quick only")
	notApplicable(rep, "exp.parallelism", "ratio", "battery-quick only")
}
