package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bsmp"
	"bsmp/internal/cost"
	"bsmp/internal/obs"
	"bsmp/internal/topology"

	"encoding/json"
)

// RunRequest is the POST /v1/run body: a full scheme-registry tuple plus
// the guest selection and per-run SchemeConfig knobs.
type RunRequest struct {
	Scheme string `json:"scheme"`
	D      int    `json:"d"`
	N      int    `json:"n"`
	P      int    `json:"p"`
	M      int    `json:"m"`
	Steps  int    `json:"steps"`
	// Guest selects the workload: "mixca" (default, any m) or "rule90".
	Guest string `json:"guest,omitempty"`
	// Seed perturbs the guest's initial condition.
	Seed   uint64    `json:"seed,omitempty"`
	Config RunConfig `json:"config,omitempty"`
	// Trace requests the span timeline inline in the response. Set via
	// the ?trace=1 query parameter, not the body: a traced response must
	// come from a real execution, so the flag also bypasses the result
	// cache (but still coalesces with identical concurrent traced
	// queries).
	Trace bool `json:"-"`
}

// RunConfig mirrors bsmp.SchemeConfig field by field for the JSON
// surface.
type RunConfig struct {
	Leaf         int  `json:"leaf,omitempty"`
	StripWidth   int  `json:"strip_width,omitempty"`
	SpanOverride int  `json:"span_override,omitempty"`
	NoRearrange  bool `json:"no_rearrange,omitempty"`
	NoCooperate  bool `json:"no_cooperate,omitempty"`
	// Theta is the Θ-model delay ratio, accepted only by the multi-theta
	// scheme: message delays are drawn in [distance, Θ·distance]. Must
	// be 0 or a finite value >= 1; 0 and 1 both mean lockstep (no delay
	// model is installed).
	Theta float64 `json:"theta,omitempty"`
	// ThetaSeed selects the deterministic delay draw sequence.
	ThetaSeed uint64 `json:"theta_seed,omitempty"`
	// Faults is the static fault density for the multi-faulty scheme:
	// the fraction of processors and memory cells sampled dead. Must lie
	// in [0, 1); 0 means fault-free (and is the only value the
	// fault-free schemes accept).
	Faults float64 `json:"faults,omitempty"`
	// FaultSeed selects the deterministic fault sample.
	FaultSeed uint64 `json:"fault_seed,omitempty"`
}

// schemeConfig maps the JSON config onto the registry's SchemeConfig —
// the single translation used by both validation and execution, so the
// daemon can never validate one tuple and run another.
func (req RunRequest) schemeConfig() bsmp.SchemeConfig {
	return bsmp.SchemeConfig{
		Leaf: req.Config.Leaf,
		Multi: bsmp.MultiOptions{
			StripWidth:   req.Config.StripWidth,
			SpanOverride: req.Config.SpanOverride,
			NoRearrange:  req.Config.NoRearrange,
			NoCooperate:  req.Config.NoCooperate,
			Theta:        req.Config.Theta,
			ThetaSeed:    req.Config.ThetaSeed,
			Faults:       req.Config.Faults,
			FaultSeed:    req.Config.FaultSeed,
		},
	}
}

// PhaseTime is one entry of the per-phase makespan attribution.
type PhaseTime struct {
	Name string  `json:"name"`
	Time float64 `json:"time"`
}

// RunResponse reports a simulation: the echoed tuple, the virtual-time
// accounting, and the serving metadata (cache/coalescing provenance).
type RunResponse struct {
	Scheme string `json:"scheme"`
	D      int    `json:"d"`
	N      int    `json:"n"`
	P      int    `json:"p"`
	M      int    `json:"m"`
	Steps  int    `json:"steps"`
	Guest  string `json:"guest"`
	Seed   uint64 `json:"seed"`
	// Theta echoes the requested Θ-model delay ratio (0 when the run
	// used the lockstep default).
	Theta float64 `json:"theta,omitempty"`
	// Faults echoes the requested fault density (0 = fault-free), and
	// FaultReport carries the sampled mask's accounting for a
	// multi-faulty run.
	Faults      float64           `json:"faults,omitempty"`
	FaultReport *bsmp.FaultReport `json:"fault_report,omitempty"`

	// Time is the host's elapsed virtual time; PrepTime the one-time
	// rearrangement cost (multiprocessor schemes).
	Time     float64 `json:"time"`
	PrepTime float64 `json:"prep_time,omitempty"`
	// Slowdown is Time over the analytic guest time is not measured
	// here; Bound is Theorem 1's closed-form (n/p)·A(n, m, p) for
	// context.
	Bound float64 `json:"theorem1_bound"`

	StripWidth    int         `json:"strip_width,omitempty"`
	Span          int         `json:"span,omitempty"`
	Regime1Levels int         `json:"regime1_levels,omitempty"`
	Domains       int         `json:"domains,omitempty"`
	Phases        []PhaseTime `json:"phases,omitempty"`
	// Ledger attributes Time by cost category.
	Ledger map[string]float64 `json:"ledger"`
	// OutputsDigest fingerprints the guest's final state: a 64-bit
	// FNV-1a, word by word, over the broadcast outputs and then each
	// node's memory, as 16 hex digits. Outputs depend on the guest
	// alone, so one guest has one digest at every p, Θ and fault
	// density. Omitted when the scheme reports no outputs
	// (blocked-analytic).
	OutputsDigest string `json:"outputs_digest,omitempty"`

	// RunID names this execution's record in the run registry; join it
	// against GET /v1/runs/{id} for the full lifecycle record (queue and
	// wall timings, per-phase spans, progress counters). Cached responses
	// carry the ORIGINAL execution's ID — the record that actually ran.
	// Empty when the registry is disabled.
	RunID string `json:"run_id,omitempty"`

	// Cached reports an LRU hit; Coalesced that this response shares a
	// concurrent identical query's execution.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`

	// Trace is the run's span timeline (?trace=1 only): nested spans
	// with wall durations and virtual-time attributes.
	Trace []*bsmp.Span `json:"trace,omitempty"`

	// traceEpoch is the row tracer's construction time (zero point of
	// Trace's StartNS offsets); the sweep endpoint uses it to rebase
	// per-row timelines under one sweep root. Not serialized.
	traceEpoch time.Time
}

// BoundsResponse is the closed-form Theorem 1 payload for /v1/bounds.
type BoundsResponse struct {
	D int `json:"d"`
	N int `json:"n"`
	P int `json:"p"`
	M int `json:"m"`

	A          float64 `json:"a"`
	Slowdown   float64 `json:"slowdown"`
	Brent      float64 `json:"brent"`
	NaiveBound float64 `json:"naive_bound"`
	OptimalS   float64 `json:"optimal_s"`
	// Boundaries are the three m-range boundaries of Theorem 1.
	Boundaries [3]float64 `json:"range_boundaries"`
}

// SchemeInfo is one /v1/schemes registry entry.
type SchemeInfo struct {
	Name        string `json:"name"`
	D           int    `json:"d"`
	Multiproc   bool   `json:"multiproc"`
	Description string `json:"description"`
}

// maxRunBody bounds the /v1/run request body; the whole tuple fits in a
// few hundred bytes.
const maxRunBody = 1 << 16

// handleRun serves POST /v1/run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method", "use POST", nil)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is shutting down", nil)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "body", fmt.Sprintf("malformed request body: %v", err), nil)
		return
	}
	if req.Guest == "" {
		req.Guest = "mixca"
	}
	if req.Guest != "mixca" && req.Guest != "rule90" {
		writeError(w, http.StatusBadRequest, "param", "unknown guest",
			&bsmp.ParamError{Scheme: req.Scheme, Field: "guest",
				Constraint: `must be "mixca" or "rule90"`, Got: req.Guest})
		return
	}
	if pe := s.checkCaps(req); pe != nil {
		writeError(w, http.StatusBadRequest, "param", pe.Error(), pe)
		return
	}
	if err := bsmp.ValidateParams(req.Scheme, req.D, req.N, req.P, req.M, req.Steps, req.schemeConfig()); err != nil {
		var pe *bsmp.ParamError
		if !errors.As(err, &pe) {
			// Registry lookup failure: surface it on the scheme field.
			pe = &bsmp.ParamError{Scheme: req.Scheme, Field: "scheme",
				Constraint: "must be a registered (scheme, d) pair", Got: req.Scheme}
		}
		writeError(w, http.StatusBadRequest, "param", err.Error(), pe)
		return
	}

	req.Trace = r.URL.Query().Get("trace") == "1"

	// Canonicalize AFTER validation: "theta": 1 spelled out and theta
	// omitted are the same lockstep-equivalent simulation (and an unused
	// theta_seed is inert), so they must share one cache entry and one
	// execution instead of duplicating both.
	req = req.canonical()
	key := cacheKey(req)
	if req.Trace {
		// Traced runs bypass the cache in both directions — the timeline
		// must come from a real execution — but share a distinct flight
		// key so identical concurrent traced queries still coalesce.
		key += "|trace"
		s.vars.Add("traced_runs", 1)
	} else {
		if v, ok := s.cache.Get(key); ok {
			s.vars.Add("cache_hits", 1)
			resp := *v.(*RunResponse)
			resp.Cached = true
			// Attribute the hit to the execution whose result this is; the
			// response keeps that original run's ID, so the client can still
			// join the row to the record that actually ran.
			s.registry.Get(resp.RunID).AddCacheHit()
			writeJSON(w, http.StatusOK, resp)
			return
		}
		s.vars.Add("cache_misses", 1)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Tie the request to the server's lifetime: a hard shutdown cancels
	// every in-flight simulation through the same context chain.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	v, err, shared := s.flight.Do(ctx, key, func() (any, error) {
		// One registry record per execution, created inside the flight
		// closure: coalesced followers share the leader's record.
		rec := s.beginRun(req, "run")
		v, err := s.pool.Do(ctx, func(jctx context.Context) (any, error) {
			rec.h.Running()
			resp, err := s.runScheme(rec.attach(jctx), req)
			if err == nil {
				s.vars.Add("runs", 1)
				resp.RunID = rec.h.ID()
				if !req.Trace {
					s.cache.Add(key, resp)
				}
			}
			return resp, err
		})
		resp, _ := v.(*RunResponse)
		s.finishRun(rec, resp, err)
		return v, err
	})
	if shared {
		s.vars.Add("coalesced", 1)
	}
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	resp := *v.(*RunResponse)
	resp.Coalesced = shared
	writeJSON(w, http.StatusOK, resp)
}

// classifyRunError maps an execution failure onto the HTTP surface — the
// status code and structured error detail — and counts it. Shared by the
// single-run handler (which writes it as the whole response) and the
// sweep handler (which embeds it in the failing row).
func (s *Server) classifyRunError(err error) (int, ErrorDetail) {
	var pe *bsmp.ParamError
	var pz *PanicError
	switch {
	case errors.As(err, &pz):
		s.vars.Add("panics_recovered", 1)
		return http.StatusInternalServerError, ErrorDetail{Kind: "internal", Message: err.Error()}
	case errors.Is(err, ErrQueueFull):
		s.vars.Add("queue_rejects", 1)
		return http.StatusTooManyRequests, ErrorDetail{Kind: "queue_full", Message: err.Error()}
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, ErrorDetail{Kind: "draining", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		s.vars.Add("deadline_timeouts", 1)
		return http.StatusGatewayTimeout, ErrorDetail{Kind: "deadline", Message: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		// A cancelled context is the caller abandoning the request (client
		// disconnect, sweep abort, shutdown hard-stop), not a deadline:
		// keep it out of deadline_timeouts — a disconnected sweep would
		// otherwise inflate that counter once per in-flight grid point.
		// Cancellation is already counted where it is detected
		// (runs_cancelled in execute, sweeps_cancelled per sweep). The
		// status follows the nginx 499 convention; the peer is usually
		// gone before it is written.
		return 499, ErrorDetail{Kind: "cancelled", Message: "request cancelled"}
	case errors.As(err, &pe):
		return http.StatusBadRequest, ErrorDetail{Kind: "param", Message: err.Error(), Param: pe}
	default:
		// Remaining failures are tuple/config mismatches reported by the
		// scheme itself (e.g. a strip width that does not divide n/p).
		return http.StatusBadRequest, ErrorDetail{Kind: "param", Message: err.Error()}
	}
}

// writeRunError maps an execution failure onto the HTTP surface.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	status, detail := s.classifyRunError(err)
	writeError(w, status, detail.Kind, detail.Message, detail.Param)
}

// checkCaps enforces the server-side size limits — valid paper geometry
// can still be too big to simulate on request-serving budgets.
func (s *Server) checkCaps(req RunRequest) *bsmp.ParamError {
	switch {
	case req.N > s.cfg.MaxN:
		return &bsmp.ParamError{Scheme: req.Scheme, Field: "n",
			Constraint: fmt.Sprintf("exceeds server limit %d", s.cfg.MaxN), Got: req.N}
	case req.M > s.cfg.MaxM:
		return &bsmp.ParamError{Scheme: req.Scheme, Field: "m",
			Constraint: fmt.Sprintf("exceeds server limit %d", s.cfg.MaxM), Got: req.M}
	case req.Steps > s.cfg.MaxSteps:
		return &bsmp.ParamError{Scheme: req.Scheme, Field: "steps",
			Constraint: fmt.Sprintf("exceeds server limit %d", s.cfg.MaxSteps), Got: req.Steps}
	}
	return nil
}

// canonical maps every spelling of the same simulation onto one request
// value, so the cache key (and flight key) below cannot split
// semantically identical requests into distinct entries. Applied AFTER
// validation — validation judges the request as written (lockstep
// schemes still reject an explicit theta), canonicalization only
// collapses spellings the engines treat identically:
//
//   - guest "" is the documented mixca default;
//   - theta 1 is lockstep, exactly as an unset (0) theta is: every
//     delay factor is exactly 1, so the engine installs no delay model
//     (bit-identical by the Θ = 1 golden tests);
//   - theta_seed selects delay draws only when a Θ-model is active
//     (theta != 0 after the rule above), so under lockstep it is inert
//     and resets to 0;
//   - fault_seed selects fault draws only when the density is nonzero
//     (a zero-density mask kills nothing for every seed, bit-identical
//     by the fault golden tests), so it resets to 0 with faults 0.
func (req RunRequest) canonical() RunRequest {
	if req.Guest == "" {
		req.Guest = "mixca"
	}
	if req.Config.Theta == 1 {
		req.Config.Theta = 0
	}
	if req.Config.Theta == 0 {
		req.Config.ThetaSeed = 0
	}
	if req.Config.Faults == 0 {
		req.Config.FaultSeed = 0
	}
	return req
}

// cacheKey serializes the full request tuple — scheme, dimension, sizes,
// guest, seed, and every SchemeConfig knob — so distinct runs never
// alias. Callers key canonical() requests: the tuple identifies the
// simulation, not its JSON spelling.
func cacheKey(req RunRequest) string {
	return fmt.Sprintf("%s|d=%d|n=%d|p=%d|m=%d|steps=%d|g=%s|seed=%d|leaf=%d|sw=%d|so=%d|nr=%t|nc=%t|th=%g|ths=%d|fl=%g|fls=%d",
		req.Scheme, req.D, req.N, req.P, req.M, req.Steps, req.Guest, req.Seed,
		req.Config.Leaf, req.Config.StripWidth, req.Config.SpanOverride,
		req.Config.NoRearrange, req.Config.NoCooperate,
		req.Config.Theta, req.Config.ThetaSeed,
		req.Config.Faults, req.Config.FaultSeed)
}

// buildGuest constructs the requested workload with the grid geometry d
// requires (n's shape is already validated).
func buildGuest(req RunRequest) bsmp.Program {
	var g interface {
		InitAt(x, y int, mem []bsmp.Word) bsmp.Word
		Address(node, step, memSize int) int
		Step2(node, step int, cell bsmp.Word, prev []bsmp.Word) (bsmp.Word, bsmp.Word)
	}
	if req.Guest == "rule90" {
		g = bsmp.Rule90{Seed: req.Seed}
	} else {
		g = bsmp.MixCA{Seed: req.Seed}
	}
	switch req.D {
	case 2:
		side, _ := topology.IntRoot(2, req.N)
		return bsmp.AsNetwork{G: g, Side: side}
	case 3:
		side, _ := topology.IntRoot(3, req.N)
		return bsmp.AsNetwork{G: g, CubeSide: side}
	}
	return bsmp.AsNetwork{G: g}
}

// ledgerCategories is the cost-category order reported in responses.
var ledgerCategories = []cost.Category{cost.Compute, cost.Access, cost.Transfer, cost.Message, cost.Sync}

// registrySpanCap bounds the span tracer attached to untraced runs for
// the flight recorder: enough for the scheme/calibrate/schedule/phase
// skeleton every record wants, without the per-domain span flood a
// deep blocked recursion emits (?trace=1 runs keep the full default
// cap).
const registrySpanCap = 256

// runRecord bundles one execution's registry handle with its telemetry
// sources (progress meter + span tracer) from admission to the
// terminal transition.
type runRecord struct {
	h    *obs.RunHandle
	prog *bsmp.Progress
	tr   *bsmp.Tracer
}

// beginRun admits one execution into the run registry: a queued record
// under a fresh run ID, with read-only samplers over the run's
// Progress atomics and Tracer span stack — the record (and the SSE
// stream polling it) observes the simulation without ever touching a
// cost meter, so registered runs stay bit-identical to bare ones.
// With the registry disabled the record handle is nil (all its methods
// no-ops) but the progress meter still feeds the inflight gauges.
func (s *Server) beginRun(req RunRequest, source string) *runRecord {
	rec := &runRecord{prog: new(bsmp.Progress)}
	if req.Trace {
		rec.tr = bsmp.NewTracer()
	} else if s.registry != nil {
		rec.tr = obs.NewTracerCap(registrySpanCap)
	}
	if s.registry != nil {
		id := fmt.Sprintf("r-%s-%d", s.bootID, s.runSeq.Add(1))
		// req is the canonical tuple; Trace is json:"-" so the stored
		// params serialize exactly like the request body.
		rec.h = s.registry.Begin(id, source, req.Scheme, req)
		prog, tr := rec.prog, rec.tr
		rec.h.SetSamplers(
			func() (int64, int64) { return prog.Vertices.Load(), prog.Phases.Load() },
			tr.Current,
		)
	}
	return rec
}

// attach injects the record's telemetry into the job context; execute
// picks both up instead of allocating its own.
func (rec *runRecord) attach(ctx context.Context) context.Context {
	ctx = bsmp.WithProgress(ctx, rec.prog)
	if rec.tr != nil {
		ctx = bsmp.WithTracer(ctx, rec.tr)
	}
	return ctx
}

// finishRun lands the execution's terminal record: lifecycle state from
// the error classification, virtual times, per-phase attribution with
// wall durations joined from the span timeline, the cost ledger, and
// the span tree itself for the full-record endpoint.
func (s *Server) finishRun(rec *runRecord, resp *RunResponse, err error) {
	if rec == nil || rec.h == nil {
		return
	}
	var state string
	switch {
	case err == nil:
		state = obs.RunDone
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		state = obs.RunShed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		state = obs.RunCancelled
	default:
		state = obs.RunFailed
	}
	roots := rec.tr.Roots()
	rec.h.Finish(state, func(info *obs.RunInfo) {
		if err != nil {
			info.Error = err.Error()
		}
		info.Trace = roots
		if resp == nil {
			return
		}
		info.Time = resp.Time
		info.PrepTime = resp.PrepTime
		info.Ledger = resp.Ledger
		info.PhaseTimes = phaseSummaries(resp.Phases, roots)
	})
}

// phaseSummaries joins the response's virtual-time phase attribution
// with wall durations summed from the matching "phase:" spans.
func phaseSummaries(phases []PhaseTime, roots []*bsmp.Span) []obs.PhaseSummary {
	wall := make(map[string]float64)
	var walk func(sp *bsmp.Span)
	walk = func(sp *bsmp.Span) {
		if name, ok := strings.CutPrefix(sp.Name, "phase:"); ok {
			wall[name] += float64(sp.DurNS) / 1e6
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	out := make([]obs.PhaseSummary, 0, len(phases))
	for _, ph := range phases {
		out = append(out, obs.PhaseSummary{Name: ph.Name, VTime: ph.Time, WallMS: wall[ph.Name]})
	}
	return out
}

// execute runs a validated request through the scheme registry — the
// production runScheme implementation. The simulation runs under ctx
// with a registered Progress, so cancelling ctx (client disconnect,
// deadline, hard shutdown) stops it at its next checkpoint and /metrics
// sees its live step counters while it runs.
func (s *Server) execute(ctx context.Context, req RunRequest) (*RunResponse, error) {
	cfg := req.schemeConfig()
	// The run-registry wrapper (beginRun.attach) usually supplies the
	// progress meter and tracer so the record samples the same telemetry
	// the engines feed; allocate them here only when execute is driven
	// directly (registry disabled, or tests calling runScheme).
	prog := bsmp.ProgressFrom(ctx)
	if prog == nil {
		prog = new(bsmp.Progress)
		ctx = bsmp.WithProgress(ctx, prog)
	}
	tr := bsmp.TracerFrom(ctx)
	if tr == nil && req.Trace {
		tr = bsmp.NewTracer()
		ctx = bsmp.WithTracer(ctx, tr)
	}
	id := RequestIDFrom(ctx)
	s.log.Info("run start", "id", id, "scheme", req.Scheme, "d", req.D,
		"n", req.N, "p", req.P, "m", req.M, "steps", req.Steps,
		"theta", req.Config.Theta, "traced", req.Trace)
	s.inflightMu.Lock()
	s.inflight[prog] = struct{}{}
	s.inflightMu.Unlock()
	defer func() {
		s.inflightMu.Lock()
		delete(s.inflight, prog)
		s.inflightMu.Unlock()
	}()
	start := time.Now()
	res, err := bsmp.RunSchemeContext(ctx, req.Scheme, req.D, req.N, req.P, req.M, req.Steps, buildGuest(req), cfg)
	elapsed := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
			s.vars.Add("runs_cancelled", 1)
		}
		s.log.Warn("run failed", "id", id, "scheme", req.Scheme,
			"dur_ms", float64(elapsed.Nanoseconds())/1e6, "err", err.Error())
		return nil, err
	}
	s.latHist.Observe(elapsed.Seconds())
	if cfg.Multi.Theta != 0 {
		// Θ-model runs also get their own latency series, so a Θ
		// workload's latency can be watched apart from the lockstep runs
		// it is mixed with.
		s.thetaHist.Observe(elapsed.Seconds())
	}
	s.sizeHist.Observe(float64(req.N) * float64(req.Steps))
	s.log.Info("run done", "id", id, "scheme", req.Scheme,
		"dur_ms", float64(elapsed.Nanoseconds())/1e6,
		"time", float64(res.Time), "prep_time", float64(res.PrepTime))
	ledger := make(map[string]float64, len(ledgerCategories))
	for _, cat := range ledgerCategories {
		if t := res.Ledger.Total(cat); t != 0 {
			ledger[cat.String()] = t
		}
	}
	var phases []PhaseTime
	for _, ph := range res.Phases {
		phases = append(phases, PhaseTime{Name: ph.Name, Time: ph.Time})
	}
	resp := &RunResponse{
		Scheme: req.Scheme, D: req.D, N: req.N, P: req.P, M: req.M, Steps: req.Steps,
		Guest: req.Guest, Seed: req.Seed, Theta: req.Config.Theta,
		Faults: req.Config.Faults, FaultReport: res.Faults,
		Time:       res.Time,
		PrepTime:   res.PrepTime,
		Bound:      bsmp.Slowdown(req.D, req.N, req.M, req.P),
		StripWidth: res.StripWidth, Span: res.Span,
		Regime1Levels: res.Regime1Levels, Domains: res.Domains,
		Phases: phases, Ledger: ledger,
		OutputsDigest: outputsDigest(res.Outputs, res.Memories),
	}
	// The inline timeline stays opt-in: untraced runs may still carry a
	// registry tracer for the flight recorder, but their responses (and
	// cache entries) must not grow a span tree nobody asked for.
	if req.Trace && tr != nil {
		resp.Trace = tr.Roots()
		resp.traceEpoch = tr.Epoch()
	}
	return resp, nil
}

// outputsDigest renders RunResponse.OutputsDigest; "" when outs is nil.
func outputsDigest(outs []bsmp.Word, mems [][]bsmp.Word) string {
	if outs == nil {
		return ""
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range outs {
		h = (h ^ w) * prime
	}
	for _, mem := range mems {
		for _, w := range mem {
			h = (h ^ w) * prime
		}
	}
	return fmt.Sprintf("%016x", h)
}

// handleBounds serves GET /v1/bounds?d=&n=&p=&m= — the closed-form
// Theorem 1 quantities, no simulation.
func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method", "use GET", nil)
		return
	}
	q := r.URL.Query()
	get := func(name string) (int, *bsmp.ParamError) {
		raw := q.Get(name)
		if raw == "" {
			return 0, &bsmp.ParamError{Field: name, Constraint: "query parameter required", Got: raw}
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return 0, &bsmp.ParamError{Field: name, Constraint: "must be an integer", Got: raw}
		}
		return v, nil
	}
	var d, n, p, m int
	for _, f := range []struct {
		name string
		dst  *int
	}{{"d", &d}, {"n", &n}, {"p", &p}, {"m", &m}} {
		v, pe := get(f.name)
		if pe != nil {
			writeError(w, http.StatusBadRequest, "param", pe.Error(), pe)
			return
		}
		*f.dst = v
	}
	var pe *bsmp.ParamError
	switch {
	case d < 1 || d > 3:
		pe = &bsmp.ParamError{Field: "d", Constraint: "mesh dimension must be 1, 2 or 3", Got: d}
	case n < 1:
		pe = &bsmp.ParamError{Field: "n", Constraint: "machine volume must be >= 1", Got: n}
	case p < 1:
		pe = &bsmp.ParamError{Field: "p", Constraint: "host processor count must be >= 1", Got: p}
	case p > n:
		pe = &bsmp.ParamError{Field: "p", Constraint: fmt.Sprintf("must satisfy p <= n = %d", n), Got: p}
	case m < 1:
		pe = &bsmp.ParamError{Field: "m", Constraint: "memory density must be >= 1", Got: m}
	}
	if pe != nil {
		writeError(w, http.StatusBadRequest, "param", pe.Error(), pe)
		return
	}
	b12, b23, b34 := bsmp.Boundaries(d, n, p)
	writeJSON(w, http.StatusOK, BoundsResponse{
		D: d, N: n, P: p, M: m,
		A:          bsmp.A(d, n, m, p),
		Slowdown:   bsmp.Slowdown(d, n, m, p),
		Brent:      bsmp.BrentSlowdown(n, p),
		NaiveBound: bsmp.NaiveSlowdownBound(d, n, p),
		OptimalS:   bsmp.OptimalS(n, m, p),
		Boundaries: [3]float64{b12, b23, b34},
	})
}

// handleSchemes serves GET /v1/schemes: registry introspection.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method", "use GET", nil)
		return
	}
	var out []SchemeInfo
	for _, sc := range bsmp.Schemes() {
		out = append(out, SchemeInfo{
			Name: sc.Name, D: sc.D, Multiproc: sc.Multiproc, Description: sc.Description,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports liveness; during graceful shutdown it flips to
// 503 so load balancers stop routing here while in-flight work drains.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the expvar map as JSON under the "bsmp" key.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"bsmp\": %s}\n", s.vars.String())
}
