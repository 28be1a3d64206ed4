package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"bsmp"
	"bsmp/internal/network"
	"bsmp/internal/serve"
)

// sweepHeavy is the engine workload: one client; an op is five
// /v1/sweep requests streamed to completion, sent to a daemon whose
// result cache is empty, so every grid point executes.
type sweepHeavy struct {
	t      *tally
	specs  []sweepSpec
	hc     *http.Client
	d      *daemon
	filled bool // refs computed by the first set-up
}

// sweepSpec is one of the op's sweeps: its body and, per grid point,
// the direct reference its row must match.
type sweepSpec struct {
	body   []byte
	points []serve.RunRequest
	refs   map[string]outcome
}

// sweepRequests are the op's five grids. The registry rejects Θ on
// lockstep multi, so each family gets its own grid. Sizes and the fault
// sample are fixed; the seed picks guest seeds and the Θ draws, so every
// seed's op costs alike. The calibrations the grids need stay well inside the
// daemon's default 1024-entry memo store, so the timed phase
// recalibrates nothing.
func sweepRequests(seed uint64) []serve.SweepRequest {
	r := newRNG(seed, 100)
	g := func() uint64 { return 1 + r.next()%(1<<20) }
	return []serve.SweepRequest{
		{Schemes: []string{"multi"}, D: 1, N: serve.Axis{1024, 2048, 4096}, P: serve.Axis{8, 16},
			M: serve.Axis{4}, Steps: serve.Axis{256, 512}, Guest: "mixca", Seed: g()},
		{Schemes: []string{"multi-theta"}, D: 1, N: serve.Axis{2048}, P: serve.Axis{8}, M: serve.Axis{4},
			Steps: serve.Axis{512}, Theta: serve.FloatAxis{1.5, 2, 4}, Guest: "mixca", Seed: g(),
			Config: serve.RunConfig{ThetaSeed: g()}},
		{Schemes: []string{"multi-faulty"}, D: 1, N: serve.Axis{2048, 4096}, P: serve.Axis{16}, M: serve.Axis{4},
			Steps: serve.Axis{256}, Guest: "mixca", Seed: g(), Config: serve.RunConfig{Faults: 0.1, FaultSeed: faultSeeds[0]}},
		{Schemes: []string{"multi"}, D: 2, N: serve.Axis{1024}, P: serve.Axis{16, 64}, M: serve.Axis{4},
			Steps: serve.Axis{256, 512}, Guest: "mixca", Seed: g()},
		{Schemes: []string{"multi"}, D: 3, N: serve.Axis{4096}, P: serve.Axis{64, 512}, M: serve.Axis{4},
			Steps: serve.Axis{256, 512}, Guest: "mixca", Seed: g()},
	}
}

// gridPoints expands a sweep the way /v1/sweep documents it: scheme,
// then n, p, m, steps, theta.
func gridPoints(s serve.SweepRequest) []serve.RunRequest {
	thetas := []float64(s.Theta)
	if len(thetas) == 0 {
		thetas = []float64{s.Config.Theta}
	}
	var out []serve.RunRequest
	for _, sc := range s.Schemes {
		for _, n := range s.N {
			for _, p := range s.P {
				for _, m := range s.M {
					for _, st := range s.Steps {
						for _, th := range thetas {
							cfg := s.Config
							cfg.Theta = th
							out = append(out, serve.RunRequest{Scheme: sc, D: s.D, N: n, P: p, M: m, Steps: st,
								Guest: s.Guest, Seed: s.Seed, Config: cfg})
						}
					}
				}
			}
		}
	}
	return out
}

// pointKey identifies a grid point by the tuple a row echoes.
func pointKey(scheme string, d, n, p, m, steps int, seed uint64, theta, faults float64) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%d|%g|%g", scheme, d, n, p, m, steps, seed, theta, faults)
}

func newSweepHeavy(seed uint64, t *tally) *sweepHeavy {
	w := &sweepHeavy{t: t}
	for _, s := range sweepRequests(seed) {
		body, err := json.Marshal(s)
		if err != nil {
			panic(err) // SweepRequest is plain data; marshalling cannot fail
		}
		w.specs = append(w.specs, sweepSpec{body: body, points: gridPoints(s), refs: map[string]outcome{}})
	}
	return w
}

// setup runs every grid point directly on an empty memo store, which
// pays every kernel calibration the op needs.
func (w *sweepHeavy) setup(ctx context.Context) error {
	resetMemo()
	for _, s := range w.specs {
		for _, req := range s.points {
			o, err := direct(ctx, req)
			if err != nil {
				return err
			}
			k := pointKey(req.Scheme, req.D, req.N, req.P, req.M, req.Steps, req.Seed, req.Config.Theta, req.Config.Faults)
			if !w.filled {
				s.refs[k] = o
			} else if err := s.refs[k].match(o); err != nil {
				return fmt.Errorf("direct run of %s not reproducible: %w", describe(req), err)
			}
		}
	}
	w.filled = true
	return nil
}

func (w *sweepHeavy) close() error {
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	if w.d == nil {
		return nil
	}
	err := w.d.stop()
	w.d = nil
	return err
}

// sweepLine is one NDJSON line of a /v1/sweep reply: a row, or the
// terminal summary.
type sweepLine struct {
	Index  int                `json:"index"`
	Result json.RawMessage    `json:"result"`
	Error  *serve.ErrorDetail `json:"error"`

	Done   bool `json:"done"`
	Points int  `json:"points"`
	Rows   int  `json:"rows"`
	Errors int  `json:"errors"`
}

type sweepResult struct {
	outcome
	Scheme string  `json:"scheme"`
	D      int     `json:"d"`
	N      int     `json:"n"`
	P      int     `json:"p"`
	M      int     `json:"m"`
	Steps  int     `json:"steps"`
	Seed   uint64  `json:"seed"`
	Theta  float64 `json:"theta"`
	Faults float64 `json:"faults"`
	RunID  string  `json:"run_id"`
	Cached bool    `json:"cached"`

	raw json.RawMessage // the row's serve.RunResponse as sent
}

// checkSweep verifies one sweep reply: a 200 whose rows cover every
// grid point exactly once, each equal to its direct reference and
// cached or executed as expected, closed by a done summary. It returns
// the rows.
func checkSweep(s sweepSpec, x exchange, cached bool) ([]sweepResult, error) {
	if x.status != http.StatusOK {
		return nil, fmt.Errorf("sweep status %d: %.200s", x.status, x.body)
	}
	var rows []sweepResult
	seen := map[string]bool{}
	var sum *sweepLine
	sc := bufio.NewScanner(bytes.NewReader(x.body))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("sweep line: %w", err)
		}
		switch {
		case l.Done:
			sum = &l
		case l.Error != nil:
			return nil, fmt.Errorf("sweep row %d: %s error: %s", l.Index, l.Error.Kind, l.Error.Message)
		case l.Result == nil:
			return nil, fmt.Errorf("sweep line without row or summary: %.200s", sc.Bytes())
		default:
			r := &sweepResult{raw: l.Result}
			if err := json.Unmarshal(l.Result, r); err != nil {
				return nil, fmt.Errorf("sweep row %d: %w", l.Index, err)
			}
			k := pointKey(r.Scheme, r.D, r.N, r.P, r.M, r.Steps, r.Seed, r.Theta, r.Faults)
			ref, ok := s.refs[k]
			if !ok || seen[k] {
				return nil, fmt.Errorf("sweep row %d: unexpected or repeated point %s", l.Index, k)
			}
			seen[k] = true
			if err := ref.match(r.outcome); err != nil {
				return nil, fmt.Errorf("sweep row %s: %w", k, err)
			}
			if r.Cached != cached {
				return nil, fmt.Errorf("sweep row %s: cached=%t, want %t", k, r.Cached, cached)
			}
			rows = append(rows, *r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sum == nil || sum.Points != len(s.points) || sum.Rows != len(s.points) || sum.Errors != 0 || len(rows) != len(s.points) {
		return nil, fmt.Errorf("sweep incomplete: %d of %d rows, summary %+v", len(rows), len(s.points), sum)
	}
	return rows, nil
}

// sendOp sends the op's five sweeps one after another and returns their
// exchanges and the op's wall, first request byte to last row byte.
func (w *sweepHeavy) sendOp() ([]exchange, time.Time, time.Time, error) {
	xs := make([]exchange, len(w.specs))
	t0 := time.Now()
	for i, s := range w.specs {
		x, err := roundTrip(w.hc, http.MethodPost, w.d.base+"/v1/sweep", s.body)
		if err != nil {
			return nil, t0, time.Now(), err
		}
		xs[i] = x
	}
	return xs, t0, time.Now(), nil
}

func (w *sweepHeavy) run(ctx context.Context, ph *phase) error {
	deadline := time.Now().Add(ph.dur)
	for time.Now().Before(deadline) {
		if err := w.close(); err != nil {
			return err
		}
		d, err := startDaemon()
		if err != nil {
			return err
		}
		w.d, w.hc = d, newClient()
		ph.g.readN(readingsPerOp)
		xs, t0, t1, err := w.sendOp()
		var rows [][]sweepResult
		if err == nil {
			for i, x := range xs {
				r, cerr := checkSweep(w.specs[i], x, false)
				if cerr != nil {
					err = cerr
					break
				}
				rows = append(rows, r)
			}
		}
		w.t.op(err)
		if err != nil {
			continue
		}
		ph.record("sweep", float64(t1.Sub(t0).Nanoseconds())/1e6)
		if ph.spans != nil {
			if err := w.traceOp(xs, rows, t0, t1, ph); err != nil {
				return err
			}
		}
		c, err := counters(w.hc, w.d.base)
		if err != nil {
			return err
		}
		for k, v := range c {
			ph.add("counter."+k, v)
		}
	}
	return nil
}

// traceOp attributes a completed op: every row's registry record gives
// its queue and execute spans under the sweep that streamed it; the
// benchmark times its own decode, validate and encode calls on the op's
// bodies; then the op is re-sent to the same daemon, every row now
// cached.
func (w *sweepHeavy) traceOp(xs []exchange, rows [][]sweepResult, t0, t1 time.Time, ph *phase) error {
	root := newNode("op:sweep", t0, t1)
	var rowIvs []interval
	var busy float64
	for i, x := range xs {
		sw := newNode(fmt.Sprintf("sweep:%d", i), x.start, x.end)
		for _, r := range rows[i] {
			info, err := record(w.hc, w.d.base, r.RunID)
			if err != nil {
				return fmt.Errorf("registry record %s: %w", r.RunID, err)
			}
			q, e := recordNodes(info)
			sw.add(q, e)
			rowIvs = append(rowIvs, interval{q.start, e.end})
			busy += info.WallMS
			ph.sample("serve.queue_ms", info.QueueMS)
			self := map[string]float64{}
			selfTimes(e, self)
			ph.addAll(self)
			ph.add("vertices", replayVertices(info.Trace))
		}
		root.add(sw)
	}
	wall := float64(root.end-root.start) / 1e6
	resid := float64(root.end-root.start-unionLen(root.start, root.end, rowIvs)) / 1e6
	ph.add("residual_ms", resid)
	ph.add("wall_ms", wall)
	ph.sample("simulate.wall_ms", busy)
	ph.sample("serve.pool_busy_ratio", busy/(wall*float64(runtime.GOMAXPROCS(0))))
	ph.spans.add(fmt.Sprintf("op-%d", t0.UnixNano()), 0, root)
	if err := w.benchCalls(rows, ph); err != nil {
		return err
	}

	cx, c0, c1, err := w.sendOp()
	if err == nil {
		for i, x := range cx {
			if _, err = checkSweep(w.specs[i], x, true); err != nil {
				break
			}
		}
	}
	w.t.op(err)
	if err == nil {
		ph.sample("serve.sweep_cached_ms", float64(c1.Sub(c0).Nanoseconds())/1e6)
	}
	return nil
}

// benchCalls times, per op, the serving layer's decode, validate and
// encode steps from outside: decoding the five sweep bodies with the
// handler's decoder settings, bsmp.ValidateParams on every grid point,
// and encoding every row's serve.RunResponse.
func (w *sweepHeavy) benchCalls(rows [][]sweepResult, ph *phase) error {
	var dec, val, enc time.Duration
	for i, s := range w.specs {
		t0 := time.Now()
		d := json.NewDecoder(bytes.NewReader(s.body))
		d.DisallowUnknownFields()
		var req serve.SweepRequest
		err := d.Decode(&req)
		dec += time.Since(t0)
		if err != nil {
			return fmt.Errorf("decoding the op's own sweep body: %w", err)
		}
		t0 = time.Now()
		for _, p := range s.points {
			if err := bsmp.ValidateParams(p.Scheme, p.D, p.N, p.P, p.M, p.Steps, schemeConfig(p)); err != nil {
				return err
			}
		}
		val += time.Since(t0)
		for _, r := range rows[i] {
			var resp serve.RunResponse
			if err := json.Unmarshal(r.raw, &resp); err != nil {
				return err
			}
			t0 = time.Now()
			err := json.NewEncoder(io.Discard).Encode(&resp)
			enc += time.Since(t0)
			if err != nil {
				return err
			}
		}
	}
	ph.sample("serve.decode_us", float64(dec.Nanoseconds())/1e3)
	ph.sample("serve.validate_us", float64(val.Nanoseconds())/1e3)
	ph.sample("serve.encode_us", float64(enc.Nanoseconds())/1e3)
	return nil
}

func (w *sweepHeavy) layers(ctx context.Context, rep *report, plain, tr *phase) error {
	for _, n := range []string{"serve.hit_ms", "serve.miss_ms", "serve.reject_ms", "obs.runs_list_ms", "obs.metrics_prom_ms"} {
		notApplicable(rep, n, "ms", "run-mix only")
	}
	notApplicable(rep, "serve.overhead_ms", "ms", "rows overlap on the pool; see serve.residual_ms")
	notApplicable(rep, "serve.cache_hit_ratio", "ratio", "every op goes to an empty cache")
	for _, m := range []struct{ name, unit, what string }{
		{"serve.queue_ms", "ms", "registry record queue_ms per row"},
		{"simulate.wall_ms", "ms", "sum of row record wall_ms per op"},
		{"serve.pool_busy_ratio", "ratio", "sum of row wall_ms / (op wall x workers) per op"},
		{"serve.sweep_cached_ms", "ms", "the op re-sent with every row cached"},
		{"serve.decode_us", "us", "json decode of the op's five sweep bodies into serve.SweepRequest"},
		{"serve.validate_us", "us", "bsmp.ValidateParams over the op's grid points"},
		{"serve.encode_us", "us", "json encode of the op's row serve.RunResponses"},
	} {
		v := tr.samples[m.name]
		rep.set(m.name, median(v), m.unit, fmt.Sprintf("p50 of %s, n=%d", m.what, len(v)))
	}
	engineLayers(rep, tr, float64(tr.ops()), "op")
	rep.set("network.pure_ns_per_vertex", w.pureReplay(), "ns", "direct network.RunGuestPure (unhooked) over the op's distinct guest tuples")
	memoLayers(rep, plain)
	rep.set("serve.residual_ms", ratio(tr.sums["residual_ms"], float64(tr.ops())), "ms",
		fmt.Sprintf("op wall not covered by any row's queue or execute span, per op over %d ops", tr.ops()))
	rep.set("attributed_share", 1-ratio(tr.sums["residual_ms"], tr.sums["wall_ms"]), "ratio", "1 - residual share of traced op wall")
	notApplicable(rep, "exp.residual_ms", "ms", "battery-quick only")
	noExp(rep)
	return nil
}

// pureReplay times network.RunGuestPure, the unhooked guest loop, over
// every distinct guest tuple of the op and returns ns per vertex.
func (w *sweepHeavy) pureReplay() float64 {
	seen := map[string]bool{}
	var ns, vertices float64
	for _, s := range w.specs {
		for _, p := range s.points {
			k := fmt.Sprintf("%d|%d|%d|%d|%d", p.D, p.N, p.M, p.Steps, p.Seed)
			if seen[k] {
				continue
			}
			seen[k] = true
			t0 := time.Now()
			network.RunGuestPure(p.D, p.N, p.M, p.Steps, guestProgram(p))
			ns += float64(time.Since(t0).Nanoseconds())
			vertices += float64(p.N) * float64(p.Steps)
		}
	}
	return ratio(ns, vertices)
}
