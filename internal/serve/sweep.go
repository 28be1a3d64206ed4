package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bsmp"
	"bsmp/internal/network"
)

// This file is the /v1/sweep endpoint: server-side evaluation of a
// parameter grid — the processor-time tradeoff *surface* the paper is
// about, instead of one (scheme, n, p, m, steps, Θ) point per request.
// The grid expands into a deterministic work plan, deduplicates against
// itself and the LRU result cache, runs the misses on the shared worker
// pool (one guest calibration, one memo store, one flight group across
// all points — and across concurrent /v1/run traffic — and one guest
// replay per replay group), and streams rows back as NDJSON the moment
// each completes. A dropped connection cancels
// every in-flight grid point through the request context and releases
// their pool slots.

// maxSweepBody bounds the /v1/sweep request body; even a maximal grid
// spec is a few KB of axis lists.
const maxSweepBody = 1 << 20

// maxAxisValues bounds one axis expansion so a malicious range cannot
// allocate unboundedly before the grid-size cap is checked.
const maxAxisValues = 1 << 16

// Axis is one integer sweep dimension. Its JSON accepts three spellings:
//
//	64                          a single value
//	[64, 256, 1024]             an explicit list
//	{"from": 64, "to": 1024, "mul": 4}   a geometric range (or "add"
//	                            for an arithmetic one), inclusive of
//	                            "to" when the progression lands on it
type Axis []int

// axisRange is the range-object spelling of an Axis or FloatAxis.
type axisRange struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Add  float64 `json:"add,omitempty"`
	Mul  float64 `json:"mul,omitempty"`
}

// expand walks the progression from From to To (inclusive).
func (r axisRange) expand() ([]float64, error) {
	switch {
	case r.Mul != 0 && r.Add != 0:
		return nil, fmt.Errorf(`range takes "add" or "mul", not both`)
	case r.Mul == 0 && r.Add == 0:
		return nil, fmt.Errorf(`range requires an "add" or "mul" step`)
	case r.Mul != 0 && r.Mul <= 1:
		return nil, fmt.Errorf(`range "mul" must be > 1, got %g`, r.Mul)
	case r.Add < 0:
		return nil, fmt.Errorf(`range "add" must be > 0, got %g`, r.Add)
	case r.To < r.From:
		return nil, fmt.Errorf(`range "to" (%g) below "from" (%g)`, r.To, r.From)
	}
	var out []float64
	for v := r.From; v <= r.To; {
		out = append(out, v)
		if len(out) > maxAxisValues {
			return nil, fmt.Errorf("range expands past %d values", maxAxisValues)
		}
		if r.Mul != 0 {
			v *= r.Mul
		} else {
			v += r.Add
		}
	}
	return out, nil
}

// unmarshalAxis dispatches on the three accepted spellings.
func unmarshalAxis(b []byte, single func() error, list func() error, ranged func(axisRange) error) error {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return fmt.Errorf("empty axis")
	}
	switch b[0] {
	case '[':
		return list()
	case '{':
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var r axisRange
		if err := dec.Decode(&r); err != nil {
			return err
		}
		return ranged(r)
	default:
		return single()
	}
}

func (a *Axis) UnmarshalJSON(b []byte) error {
	return unmarshalAxis(b,
		func() error {
			var v int
			if err := json.Unmarshal(b, &v); err != nil {
				return err
			}
			*a = Axis{v}
			return nil
		},
		func() error {
			var vs []int
			if err := json.Unmarshal(b, &vs); err != nil {
				return err
			}
			*a = vs
			return nil
		},
		func(r axisRange) error {
			vs, err := r.expand()
			if err != nil {
				return err
			}
			out := make(Axis, len(vs))
			for i, v := range vs {
				out[i] = int(v)
				if float64(out[i]) != v {
					return fmt.Errorf("range value %g is not an integer", v)
				}
			}
			*a = out
			return nil
		})
}

// FloatAxis is Axis for the real-valued Θ dimension.
type FloatAxis []float64

func (a *FloatAxis) UnmarshalJSON(b []byte) error {
	return unmarshalAxis(b,
		func() error {
			var v float64
			if err := json.Unmarshal(b, &v); err != nil {
				return err
			}
			*a = FloatAxis{v}
			return nil
		},
		func() error {
			var vs []float64
			if err := json.Unmarshal(b, &vs); err != nil {
				return err
			}
			*a = vs
			return nil
		},
		func(r axisRange) error {
			vs, err := r.expand()
			if err != nil {
				return err
			}
			*a = vs
			return nil
		})
}

// SweepRequest is the POST /v1/sweep body: the cross product of the
// scheme list and every axis, with the scalar fields shared by all grid
// points. Expansion order is deterministic — scheme-major, then n, p, m,
// steps, theta — and the row index identifies the point.
type SweepRequest struct {
	// Scheme or Schemes selects the scheme axis (both may be given; the
	// single Scheme is prepended).
	Scheme  string   `json:"scheme,omitempty"`
	Schemes []string `json:"schemes,omitempty"`

	D     int  `json:"d"`
	N     Axis `json:"n"`
	P     Axis `json:"p"`
	M     Axis `json:"m"`
	Steps Axis `json:"steps"`
	// Theta is the Θ axis; empty sweeps only Config.Theta (usually 0,
	// the lockstep default).
	Theta FloatAxis `json:"theta,omitempty"`

	Guest  string    `json:"guest,omitempty"`
	Seed   uint64    `json:"seed,omitempty"`
	Config RunConfig `json:"config,omitempty"`

	// SkipInvalid streams per-point validation failures as error rows
	// instead of rejecting the whole grid with a 400.
	SkipInvalid bool `json:"skip_invalid,omitempty"`
}

// SweepRow is one NDJSON line of the sweep response: the grid point's
// index plus either its run result or its structured error.
type SweepRow struct {
	Index int `json:"index"`
	// Deduped marks a point whose tuple duplicated an earlier grid
	// point after canonicalization; its result is shared, not re-run.
	Deduped bool         `json:"deduped,omitempty"`
	Result  *RunResponse `json:"result,omitempty"`
	Error   *ErrorDetail `json:"error,omitempty"`
}

// SweepSummary is the terminal NDJSON line: aggregate counters and, for
// traced sweeps, the merged span timeline under one "sweep" root.
type SweepSummary struct {
	Done      bool         `json:"done"`
	Points    int          `json:"points"`
	Rows      int          `json:"rows"`
	CacheHits int          `json:"cache_hits"`
	Deduped   int          `json:"deduped"`
	Errors    int          `json:"errors"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Trace     []*bsmp.Span `json:"trace,omitempty"`
}

// sweepPoint is one expanded grid tuple, with its validation verdict.
type sweepPoint struct {
	req RunRequest
	err *ErrorDetail // non-nil: the point is invalid (skip_invalid mode)
}

// sweepUnit is the unit of execution after intra-grid deduplication: one
// canonical tuple and every grid index that maps to it.
type sweepUnit struct {
	key     string
	req     RunRequest
	err     *ErrorDetail
	indices []int
}

// sweepProgress tracks one live sweep for the /metrics gauges.
type sweepProgress struct {
	total int
	done  atomic.Int64
}

// expandSweep builds the grid in deterministic order and validates every
// point. A grid-shape problem (no scheme, empty axis, too many points)
// or — without skip_invalid — the first invalid point aborts with a
// non-nil ErrorDetail.
func (s *Server) expandSweep(req SweepRequest) ([]sweepPoint, *ErrorDetail) {
	schemes := req.Schemes
	if req.Scheme != "" {
		schemes = append([]string{req.Scheme}, schemes...)
	}
	if len(schemes) == 0 {
		return nil, &ErrorDetail{Kind: "param", Message: "sweep requires at least one scheme",
			Param: &bsmp.ParamError{Field: "schemes", Constraint: "at least one scheme required", Got: 0}}
	}
	for _, ax := range []struct {
		name string
		vals Axis
	}{{"n", req.N}, {"p", req.P}, {"m", req.M}, {"steps", req.Steps}} {
		if len(ax.vals) == 0 {
			return nil, &ErrorDetail{Kind: "param",
				Message: fmt.Sprintf("sweep axis %q requires at least one value", ax.name),
				Param:   &bsmp.ParamError{Field: ax.name, Constraint: "axis requires at least one value", Got: 0}}
		}
	}
	thetas := []float64(req.Theta)
	if len(thetas) == 0 {
		thetas = []float64{req.Config.Theta}
	}
	// Accumulate the grid size factor by factor, rejecting as soon as the
	// running product exceeds the cap: the naive six-way product can wrap
	// around int (four 65536-value axes multiply to exactly 0 on 64-bit)
	// and slip past the guard into an effectively unbounded expansion
	// loop. Checking after every multiply keeps each intermediate product
	// ≤ MaxSweepPoints·(one axis length), far from overflow.
	total := 1
	for _, f := range []int{len(schemes), len(req.N), len(req.P), len(req.M), len(req.Steps), len(thetas)} {
		total *= f
		if total > s.cfg.MaxSweepPoints {
			return nil, &ErrorDetail{Kind: "param",
				Message: fmt.Sprintf("grid expands to at least %d points, server limit %d", total, s.cfg.MaxSweepPoints),
				Param: &bsmp.ParamError{Field: "grid",
					Constraint: fmt.Sprintf("at most %d points per sweep", s.cfg.MaxSweepPoints), Got: total}}
		}
	}
	guest := req.Guest
	if guest == "" {
		guest = "mixca"
	}
	if guest != "mixca" && guest != "rule90" {
		return nil, &ErrorDetail{Kind: "param", Message: "unknown guest",
			Param: &bsmp.ParamError{Field: "guest", Constraint: `must be "mixca" or "rule90"`, Got: guest}}
	}

	points := make([]sweepPoint, 0, total)
	for _, sc := range schemes {
		for _, n := range req.N {
			for _, p := range req.P {
				for _, m := range req.M {
					for _, st := range req.Steps {
						for _, th := range thetas {
							cfg := req.Config
							cfg.Theta = th
							pt := RunRequest{
								Scheme: sc, D: req.D, N: n, P: p, M: m, Steps: st,
								Guest: guest, Seed: req.Seed, Config: cfg,
							}
							detail := s.validateSweepPoint(pt)
							if detail != nil && !req.SkipInvalid {
								detail.Message = fmt.Sprintf("grid point %d: %s", len(points), detail.Message)
								return nil, detail
							}
							points = append(points, sweepPoint{req: pt, err: detail})
						}
					}
				}
			}
		}
	}
	return points, nil
}

// validateSweepPoint applies the single-run validation chain — server
// caps then registry validation — to one grid point.
func (s *Server) validateSweepPoint(pt RunRequest) *ErrorDetail {
	if pe := s.checkCaps(pt); pe != nil {
		return &ErrorDetail{Kind: "param", Message: pe.Error(), Param: pe}
	}
	if err := bsmp.ValidateParams(pt.Scheme, pt.D, pt.N, pt.P, pt.M, pt.Steps, pt.schemeConfig()); err != nil {
		var pe *bsmp.ParamError
		if !errors.As(err, &pe) {
			pe = &bsmp.ParamError{Scheme: pt.Scheme, Field: "scheme",
				Constraint: "must be a registered (scheme, d) pair", Got: pt.Scheme}
		}
		return &ErrorDetail{Kind: "param", Message: err.Error(), Param: pe}
	}
	return nil
}

// planSweep deduplicates the expanded grid against itself: points whose
// canonical tuples coincide share one execution, later indices marked
// Deduped. Invalid points stay their own unit (they only emit an error
// row).
func planSweep(points []sweepPoint, trace bool) []*sweepUnit {
	units := make([]*sweepUnit, 0, len(points))
	byKey := make(map[string]*sweepUnit, len(points))
	for i, pt := range points {
		if pt.err != nil {
			units = append(units, &sweepUnit{err: pt.err, indices: []int{i}})
			continue
		}
		key := cacheKey(pt.req.canonical())
		if trace {
			key += "|trace"
		}
		if u, ok := byKey[key]; ok {
			u.indices = append(u.indices, i)
			continue
		}
		u := &sweepUnit{key: key, req: pt.req, indices: []int{i}}
		byKey[key] = u
		units = append(units, u)
	}
	return units
}

// sweepRowOut is one completed unit on its way to the response writer.
type sweepRowOut struct {
	unit *sweepUnit
	resp *RunResponse  // nil on error
	err  *ErrorDetail  // nil on success
	wait time.Duration // completion latency as seen by the sweep; 0 for cache hits
	hit  bool          // served from the result LRU
}

// handleSweep serves POST /v1/sweep[?trace=1]: NDJSON rows as grid
// points complete, then one summary line. Cancellation (client gone,
// server shutdown) stops all in-flight points; rows already flushed
// remain valid JSON lines.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method", "use POST", nil)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is shutting down", nil)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	var req SweepRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "body", fmt.Sprintf("malformed sweep body: %v", err), nil)
		return
	}
	points, gridErr := s.expandSweep(req)
	if gridErr != nil {
		writeError(w, http.StatusBadRequest, gridErr.Kind, gridErr.Message, gridErr.Param)
		return
	}
	trace := r.URL.Query().Get("trace") == "1"
	units := planSweep(points, trace)

	s.ctr.add(ctrSweeps)
	prog := &sweepProgress{total: len(points)}
	s.sweepMu.Lock()
	s.sweepsLive[prog] = struct{}{}
	s.sweepMu.Unlock()
	defer func() {
		s.sweepMu.Lock()
		delete(s.sweepsLive, prog)
		s.sweepMu.Unlock()
	}()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	start := time.Now()
	// Every unit yields exactly one row, so no producer ever blocks on
	// the writer. Invalid points and cache hits stream at once; the rest
	// go to the dispatcher in replay groups.
	results := make(chan sweepRowOut, len(units))
	var pending []*sweepUnit
	for _, u := range units {
		if out, ok := s.resolveSweepUnit(u, trace); ok {
			results <- out
			continue
		}
		pending = append(pending, u)
	}
	go func() {
		s.dispatchSweep(ctx, groupSweep(pending), trace, results)
		close(results)
	}()

	// Single writer: one JSON line per completed unit index, flushed as
	// it lands. After a write failure (client gone) or cancellation the
	// loop keeps draining so every goroutine can finish its accounting.
	sum := SweepSummary{Points: len(points)}
	writeOK := true
	var rowTraces []tracedRow
	for out := range results {
		prog.done.Add(int64(len(out.unit.indices)))
		for k, idx := range out.unit.indices {
			row := SweepRow{Index: idx, Deduped: k > 0}
			switch {
			case out.err != nil:
				row.Error = out.err
				sum.Errors++
				s.ctr.add(ctrSweepRowErrors)
			default:
				resp := *out.resp
				row.Result = &resp
				if out.hit {
					sum.CacheHits++
					s.ctr.add(ctrSweepRowsCached)
				}
			}
			if k > 0 {
				sum.Deduped++
				s.ctr.add(ctrSweepRowsDeduped)
			}
			s.ctr.add(ctrSweepRows)
			if row.Result != nil && trace && k == 0 && out.resp.Trace != nil {
				rowTraces = append(rowTraces, tracedRow{index: idx, resp: out.resp})
			}
			if !writeOK || ctx.Err() != nil {
				continue
			}
			line, err := json.Marshal(row)
			if err != nil {
				continue
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				writeOK = false
				cancel()
				continue
			}
			sum.Rows++
			if flusher != nil {
				flusher.Flush()
			}
		}
		if out.wait > 0 {
			s.ctr.sweepRowLatency.Observe(out.wait.Seconds())
		}
	}
	sum.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if !writeOK || ctx.Err() != nil {
		s.ctr.add(ctrSweepsCancelled)
		return
	}
	sum.Done = true
	if trace {
		sum.Trace = mergeSweepTraces(start, time.Since(start), rowTraces)
	}
	if line, err := json.Marshal(sum); err == nil {
		if _, err := w.Write(append(line, '\n')); err == nil && flusher != nil {
			flusher.Flush()
		}
	}
}

// sweepGuest identifies the guest a grid point replays: everything but
// the step count and the host-side knobs (scheme, p, Θ, faults and the
// other config fields).
type sweepGuest struct {
	d, n, m int
	guest   string
	seed    uint64
}

// groupSweep partitions the units left to execute into groups, the units
// of dispatch, and orders them. Units of replaying schemes
// (bsmp.Scheme.SharedReplay) with one guest form a replay group, whose
// units share one functional replay: they run in ascending steps, ties
// in grid order, so each unit resumes from the state the one before it
// left. Every other unit is a group of one. Groups go out largest first
// — descending n × the group's largest steps, ties in grid order — the
// battery's critical-path-first rule: a group is lumpier work than a
// row, and a large one dispatched last would run alone at the end of the
// sweep.
func groupSweep(units []*sweepUnit) [][]*sweepUnit {
	groups := make([][]*sweepUnit, 0, len(units))
	byGuest := make(map[sweepGuest]int)
	for _, u := range units {
		r := u.req
		if sc, err := bsmp.SchemeByName(r.Scheme, r.D); err == nil && sc.SharedReplay {
			k := sweepGuest{r.D, r.N, r.M, r.Guest, r.Seed}
			if i, ok := byGuest[k]; ok {
				groups[i] = append(groups[i], u)
				continue
			}
			byGuest[k] = len(groups)
		}
		groups = append(groups, []*sweepUnit{u})
	}
	for _, g := range groups {
		sort.SliceStable(g, func(i, j int) bool { return g[i].req.Steps < g[j].req.Steps })
	}
	size := func(g []*sweepUnit) int { return g[0].req.N * g[len(g)-1].req.Steps }
	sort.SliceStable(groups, func(i, j int) bool { return size(groups[i]) > size(groups[j]) })
	return groups
}

// resolveSweepUnit answers a unit that needs no execution: an invalid
// point's error row, or a result-cache hit. Neither takes a slot.
func (s *Server) resolveSweepUnit(u *sweepUnit, trace bool) (sweepRowOut, bool) {
	if u.err != nil {
		return sweepRowOut{unit: u, err: u.err}, true
	}
	if trace {
		return sweepRowOut{}, false
	}
	resp, ok := s.cached(u.key)
	return sweepRowOut{unit: u, resp: resp, hit: true}, ok
}

// dispatchSweep hands the groups, in order, to sweepSem slots. A group
// holds its slot until its last unit finishes: the units run back to
// back under one replay share (bsmp.WithSharedReplay), dropped when the
// group ends, so a sweep holds at most one extra guest state per held
// slot. Units never take a slot of their own — with -sweep-parallel 1 a
// second acquire would deadlock. A slot no group is waiting for is lent
// to a running replay as a helper (sweepLender). Once ctx is done, every
// unit not yet started gets a cancellation row.
func (s *Server) dispatchSweep(ctx context.Context, groups [][]*sweepUnit, trace bool, out chan<- sweepRowOut) {
	lender := &sweepLender{s: s, ctx: ctx}
	defer lender.close()
	var wg sync.WaitGroup
	defer wg.Wait()
	hctx := bsmp.WithReplayHelpers(ctx, lender)
	cancelled := func(u *sweepUnit) sweepRowOut {
		_, detail := s.classifyRunError(ctx.Err())
		return sweepRowOut{unit: u, err: &detail}
	}
	for i, g := range groups {
		select {
		case s.sweepSem <- struct{}{}:
		case <-ctx.Done():
			for _, g := range groups[i:] {
				for _, u := range g {
					out <- cancelled(u)
				}
			}
			return
		}
		wg.Add(1)
		go func(g []*sweepUnit) {
			defer wg.Done()
			defer func() { <-s.sweepSem }()
			gctx := hctx
			if len(g) > 1 {
				gctx = bsmp.WithSharedReplay(hctx)
			}
			for _, u := range g {
				if ctx.Err() != nil {
					out <- cancelled(u)
					continue
				}
				out <- s.runSweepUnit(gctx, u, trace)
			}
		}(g)
	}
}

// sweepLender lends a sweep's running replays idle sweep slots
// (bsmp.ReplayHelpers). A lend is a non-blocking sweepSem acquire, then
// a pool job that helps the guest if its Run is still live and
// otherwise returns at once, so a helper holds one sweep slot and one
// pool worker while attached, and -workers and -sweep-parallel still
// bound the CPU-bound goroutines. A dispatcher blocked on sweepSem takes
// a freed slot before any lend can. The helper leaves at the next step
// boundary once a job is waiting in the pool queue, so it never holds a
// worker another job waits for; the replay asks again at a later step.
type sweepLender struct {
	s   *Server
	ctx context.Context

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // one per lend, until it gives its slot back
}

// Lend implements bsmp.ReplayHelpers.
func (l *sweepLender) Lend(g *network.Guest) bool {
	select {
	case l.s.sweepSem <- struct{}{}:
	default:
		return false
	}
	l.mu.Lock()
	open := !l.closed
	if open {
		l.wg.Add(1)
	}
	l.mu.Unlock()
	if !open {
		<-l.s.sweepSem
		return false
	}
	go l.help(g)
	return true
}

// help runs one lend: a pool job that helps g under the lend's sweep
// slot, given back once the job has returned. A job that never starts —
// a full queue, a draining pool or a cancelled sweep — answers the lend
// with no helper.
func (l *sweepLender) help(g *network.Guest) {
	defer l.wg.Done()
	defer func() { <-l.s.sweepSem }()
	var started atomic.Bool
	done := make(chan struct{})
	// Whether the job started, not Do's error, decides what is left:
	// Do returns once ctx ends, even while the job still helps.
	l.s.pool.Do(l.ctx, func(context.Context) (any, error) {
		if !started.CompareAndSwap(false, true) {
			return nil, nil
		}
		defer close(done)
		g.Help(l.leave)
		return nil, nil
	})
	if started.CompareAndSwap(false, true) {
		g.Help(func() bool { return true })
		return
	}
	<-done
}

// leave reports a job waiting for a pool worker: a helper's cue to give
// its worker back.
func (l *sweepLender) leave() bool { return l.s.pool.QueueDepth() > 0 }

// close stops lending and waits until every lend has given its slot
// back. The sweep's units have returned by then, so every Run a helper
// could be attached to has ended or been cancelled and lets it go
// within a step.
func (l *sweepLender) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.wg.Wait()
}

// runSweepUnit executes one grid unit on the pool, shared with identical
// concurrent runs or sweep units through the flight group.
func (s *Server) runSweepUnit(ctx context.Context, u *sweepUnit, trace bool) sweepRowOut {
	start := time.Now()
	rreq := u.req.canonical()
	rreq.Trace = trace
	v, err, shared := s.flight.Do(ctx, u.key, func() (any, error) {
		return s.runRecorded(ctx, rreq, u.key, "sweep", s.poolDoRetry)
	})
	wait := time.Since(start)
	if err != nil {
		_, detail := s.classifyRunError(err)
		return sweepRowOut{unit: u, err: &detail, wait: wait}
	}
	resp := *v.(*RunResponse)
	resp.Coalesced = shared
	return sweepRowOut{unit: u, resp: &resp, wait: wait}
}

// poolDoRetry is the sweep's submit: it hands fn to the worker pool,
// riding out transient queue-full rejections — a sweep is a long-lived
// server-side job, so instead of shedding rows under momentary pool
// pressure it backs off briefly and retries until its context is
// cancelled (interactive /v1/run traffic keeps its fail-fast 429
// behavior) — and bounds the job by RequestTimeout from the moment a
// worker starts it, so a row's budget excludes its wait behind the
// sweep's other rows.
func (s *Server) poolDoRetry(ctx context.Context, fn func(ctx context.Context) (any, error)) (any, error) {
	job := func(jctx context.Context) (any, error) {
		jctx, cancel := context.WithTimeout(jctx, s.cfg.RequestTimeout)
		defer cancel()
		return fn(jctx)
	}
	for {
		v, err := s.pool.Do(ctx, job)
		if !errors.Is(err, ErrQueueFull) {
			return v, err
		}
		s.ctr.add(ctrSweepQueueRetries)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// tracedRow pairs a grid index with its traced response for the merge.
type tracedRow struct {
	index int
	resp  *RunResponse
}

// mergeSweepTraces rebases every row's span timeline onto the sweep's
// epoch and nests them under one synthetic "sweep" root, each row root
// annotated with its grid index. Spans are deep-copied: row trees may be
// shared with concurrent coalesced /v1/run responses, so shifting them
// in place would corrupt someone else's timeline.
func mergeSweepTraces(epoch time.Time, dur time.Duration, rows []tracedRow) []*bsmp.Span {
	root := &bsmp.Span{Name: "sweep", DurNS: dur.Nanoseconds()}
	for _, tr := range rows {
		off := tr.resp.traceEpoch.Sub(epoch).Nanoseconds()
		for _, sp := range tr.resp.Trace {
			c := shiftSpan(sp, off)
			attrs := make(map[string]float64, len(c.Attrs)+1)
			for k, v := range c.Attrs {
				attrs[k] = v
			}
			attrs["index"] = float64(tr.index)
			c.Attrs = attrs
			root.Children = append(root.Children, c)
		}
	}
	return []*bsmp.Span{root}
}

// shiftSpan deep-copies a span tree with StartNS rebased by off.
func shiftSpan(sp *bsmp.Span, off int64) *bsmp.Span {
	c := &bsmp.Span{
		Name:    sp.Name,
		StartNS: sp.StartNS + off,
		DurNS:   sp.DurNS,
		Attrs:   sp.Attrs,
	}
	for _, ch := range sp.Children {
		c.Children = append(c.Children, shiftSpan(ch, off))
	}
	return c
}
