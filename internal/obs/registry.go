package obs

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the run registry and flight recorder: per-run lifecycle
// records for the serving layer. A record is created when a run is
// admitted (queued), transitions to running when a worker picks it up,
// and lands in one of four terminal states. Live records sit in a
// mutex-guarded map keyed by run ID; terminal records move to a bounded
// lock-free ring (the flight recorder), where the oldest completed
// record is overwritten first — an in-flight run can never be evicted
// because it is not in the ring yet. The terminal transition is also
// where the serving layer's run telemetry is counted — lifetime runs by
// (source, scheme, state) and the latency, queue-wait, size and phase
// histograms — so the serving layer keeps no other count of the run
// lifecycle.
//
// The registry follows the package's read-only sampling discipline:
// progress and phase labels are *sampled* from the run's Progress
// atomics and Tracer span stack through caller-supplied closures, never
// charged to a cost meter, so a registered run's virtual times are
// bit-identical to an unregistered one.

// Run lifecycle states. Queued and Running are the live states; the
// rest are terminal.
const (
	RunQueued    = "queued"
	RunRunning   = "running"
	RunDone      = "done"
	RunCancelled = "cancelled"
	RunFailed    = "failed"
	RunShed      = "shed"
)

// TerminalRunState reports whether s is a terminal lifecycle state.
func TerminalRunState(s string) bool {
	return s != RunQueued && s != RunRunning
}

// PhaseSummary is one entry of a terminal record's per-phase makespan
// attribution: the phase's virtual-time share and, when span tracing
// captured it, its wall duration.
type PhaseSummary struct {
	Name   string  `json:"name"`
	VTime  float64 `json:"vtime"`
	WallMS float64 `json:"wall_ms,omitempty"`
}

// RunInfo is the serializable snapshot of one run record — the payload
// of the introspection endpoints.
type RunInfo struct {
	ID     string `json:"id"`
	Source string `json:"source"` // "run" or "sweep"
	State  string `json:"state"`
	Scheme string `json:"scheme"`
	// Params carries the run's canonical request tuple as the serving
	// layer defined it; the registry treats it as opaque.
	Params  any       `json:"params,omitempty"`
	Created time.Time `json:"created"`
	// QueueMS is admission-to-execution latency; WallMS execution wall
	// time (live records report elapsed-so-far).
	QueueMS float64 `json:"queue_ms"`
	WallMS  float64 `json:"wall_ms"`

	// Vertices/Phases are the progress counters sampled from the run's
	// Progress meter; Span labels the innermost open span of a live run.
	Vertices int64  `json:"vertices"`
	Phases   int64  `json:"phases"`
	Span     string `json:"span,omitempty"`

	// CacheHits counts how many later requests were answered from this
	// record's cached result.
	CacheHits int64 `json:"cache_hits,omitempty"`

	// Terminal-state accounting: virtual times, per-phase attribution,
	// the cost-category ledger, and the failure message if any.
	Time       float64            `json:"time,omitempty"`
	PrepTime   float64            `json:"prep_time,omitempty"`
	PhaseTimes []PhaseSummary     `json:"phase_times,omitempty"`
	Ledger     map[string]float64 `json:"ledger,omitempty"`
	Error      string             `json:"error,omitempty"`

	// Trace is the run's span timeline; populated only on full-record
	// snapshots (Snapshot with includeTrace), never in listings.
	Trace []*Span `json:"trace,omitempty"`
}

// RunHandle is the live, mutable side of one run record. The serving
// layer holds it across the run's execution; readers snapshot it.
type RunHandle struct {
	reg  *Registry
	size int64 // guest vertices n·steps, for the run-size histogram

	// sample/current read the run's Progress atomics and Tracer span
	// stack; both are optional and must be safe for concurrent use.
	sample  func() (vertices, phases int64)
	current func() string

	done chan struct{} // closed at the terminal transition

	mu       sync.Mutex
	info     RunInfo
	started  time.Time // wall clock of the Running transition
	beginSeq uint64    // admission order, for newest-first listings
	doneSeq  uint64    // completion order, for ring ordering
}

// Registry tracks live runs, retains a bounded ring of completed
// records, and counts every terminal transition. Live runs are
// unbounded (they are bounded by the serving layer's pool).
type Registry struct {
	mu   sync.Mutex
	live map[string]*RunHandle
	seq  atomic.Uint64

	// ring is the flight recorder: completion-ordered slots, overwritten
	// oldest-first once full. Slot stores are atomic so listings read
	// without the registry lock.
	ring []atomic.Pointer[RunHandle]
	head atomic.Uint64

	// statsMu guards what the terminal transitions count: lifetime runs
	// by (source, scheme, state), and the histograms keyed by scheme or
	// phase name (queueWait and size are lock-free on their own).
	statsMu   sync.Mutex
	runs      map[runKey]uint64
	latency   map[string]*Histogram
	phases    map[string]*Histogram
	queueWait *Histogram
	size      *Histogram
}

type runKey struct{ source, scheme, state string }

// Bucket bounds of the run histograms. LatencyBounds (wall seconds,
// 1 ms to 30 s in roughly ×2.5 steps) is exported for the serving
// layer's own latency histograms.
var (
	LatencyBounds   = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	queueWaitBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
	sizeBounds      = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	phaseBounds     = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
)

// DefaultRegistryCapacity is the flight-recorder ring size when the
// caller passes a non-positive capacity.
const DefaultRegistryCapacity = 256

// NewRegistry builds a registry retaining up to capacity completed
// records (capacity < 1 selects DefaultRegistryCapacity).
func NewRegistry(capacity int) *Registry {
	if capacity < 1 {
		capacity = DefaultRegistryCapacity
	}
	return &Registry{
		live:      make(map[string]*RunHandle),
		ring:      make([]atomic.Pointer[RunHandle], capacity),
		runs:      make(map[runKey]uint64),
		latency:   make(map[string]*Histogram),
		phases:    make(map[string]*Histogram),
		queueWait: NewHistogram(queueWaitBounds...),
		size:      NewHistogram(sizeBounds...),
	}
}

// Begin admits a run of size guest vertices (n·steps): a record in
// state queued, registered live. The sampler and current-span closures
// may be nil; set them later with SetSamplers once the run's
// Progress/Tracer exist.
func (r *Registry) Begin(id, source, scheme string, size int64, params any) *RunHandle {
	h := &RunHandle{
		reg:  r,
		size: size,
		done: make(chan struct{}),
		info: RunInfo{
			ID: id, Source: source, State: RunQueued, Scheme: scheme,
			Params: params, Created: time.Now(),
		},
		beginSeq: r.seq.Add(1),
	}
	r.mu.Lock()
	r.live[id] = h
	r.mu.Unlock()
	return h
}

// SetSamplers attaches the read-only progress and current-span probes.
func (h *RunHandle) SetSamplers(sample func() (vertices, phases int64), current func() string) {
	h.mu.Lock()
	h.sample = sample
	h.current = current
	h.mu.Unlock()
}

// Running marks the queued→running transition and fixes the record's
// queue latency.
func (h *RunHandle) Running() {
	h.mu.Lock()
	if h.info.State == RunQueued {
		h.info.State = RunRunning
		h.started = time.Now()
		h.info.QueueMS = float64(h.started.Sub(h.info.Created).Nanoseconds()) / 1e6
	}
	h.mu.Unlock()
}

// Finish moves the record to terminal state, applies fill (which may
// populate times, phases, ledger, error, and trace under the record
// lock), samples the final progress counters, retires the record to the
// flight-recorder ring, counts the transition, and closes Done.
// Repeated Finish calls are no-ops; a non-terminal state is coerced to
// RunFailed.
func (h *RunHandle) Finish(state string, fill func(*RunInfo)) {
	if !TerminalRunState(state) {
		state = RunFailed
	}
	h.mu.Lock()
	if TerminalRunState(h.info.State) {
		h.mu.Unlock()
		return
	}
	now := time.Now()
	if h.started.IsZero() {
		// Never ran (shed, or cancelled while queued): the whole lifetime
		// was queue wait.
		h.info.QueueMS = float64(now.Sub(h.info.Created).Nanoseconds()) / 1e6
	} else {
		h.info.WallMS = float64(now.Sub(h.started).Nanoseconds()) / 1e6
	}
	h.info.State = state
	if h.sample != nil {
		h.info.Vertices, h.info.Phases = h.sample()
	}
	h.info.Span = ""
	if fill != nil {
		fill(&h.info)
	}
	info := h.info
	reg := h.reg
	h.mu.Unlock()

	// Retire: out of the live map first, then into the ring. The handle
	// lock is released before the registry lock is taken (ActiveCounts
	// and List acquire them in the opposite order), so between delete and
	// ring store the record is briefly invisible to Get/List — callers
	// that hold the handle (the SSE watcher) are unaffected, and the
	// serving layer only hands out IDs after Finish returns.
	reg.mu.Lock()
	delete(reg.live, info.ID)
	reg.mu.Unlock()
	seq := reg.head.Add(1)
	h.doneSeq = seq // published by the atomic ring store below
	reg.ring[(seq-1)%uint64(len(reg.ring))].Store(h)
	reg.count(&info, h.size)
	close(h.done)
}

// count lands one terminal record in the lifetime counts: every run by
// (source, scheme, state); a done run's wall time (by scheme) and guest
// size; the queue wait of every run but a shed one, which never queued;
// and the wall time of each completed phase.
func (r *Registry) count(info *RunInfo, size int64) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	r.runs[runKey{info.Source, info.Scheme, info.State}]++
	if info.State != RunShed {
		r.queueWait.Observe(info.QueueMS / 1e3)
	}
	if info.State == RunDone {
		histFor(r.latency, info.Scheme, LatencyBounds).Observe(info.WallMS / 1e3)
		r.size.Observe(float64(size))
	}
	for _, ph := range info.PhaseTimes {
		if ph.WallMS > 0 {
			histFor(r.phases, ph.Name, phaseBounds).Observe(ph.WallMS / 1e3)
		}
	}
}

// histFor returns m's histogram under key, creating it over bounds.
func histFor(m map[string]*Histogram, key string, bounds []float64) *Histogram {
	h := m[key]
	if h == nil {
		h = NewHistogram(bounds...)
		m[key] = h
	}
	return h
}

// AddCacheHit attributes one cache-served response to this record. A
// cached result can outlive its record in the ring, so the handle Get
// returns may be nil; on nil AddCacheHit does nothing.
func (h *RunHandle) AddCacheHit() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.info.CacheHits++
	h.mu.Unlock()
}

// ID returns the run ID.
func (h *RunHandle) ID() string { return h.info.ID }

// Done returns a channel closed at the terminal transition.
func (h *RunHandle) Done() <-chan struct{} { return h.done }

// Terminal reports whether the record has reached a terminal state.
func (h *RunHandle) Terminal() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// Snapshot returns a point-in-time copy of the record. Live records get
// freshly sampled progress counters, the innermost open span label, and
// elapsed wall time; the trace tree rides along only when includeTrace
// is set (listings stay small, the full-record endpoint gets it).
func (h *RunHandle) Snapshot(includeTrace bool) RunInfo {
	h.mu.Lock()
	info := h.info
	if !TerminalRunState(info.State) {
		if h.sample != nil {
			info.Vertices, info.Phases = h.sample()
		}
		if h.current != nil {
			info.Span = h.current()
		}
		if !h.started.IsZero() {
			info.WallMS = float64(time.Since(h.started).Nanoseconds()) / 1e6
		}
	}
	if !includeTrace {
		info.Trace = nil
	}
	// PhaseTimes/Ledger are written once at Finish and read-only after;
	// sharing the slices with the caller is safe.
	h.mu.Unlock()
	return info
}

// Get returns the handle for id — live or retained — or nil.
func (r *Registry) Get(id string) *RunHandle {
	if id == "" {
		return nil
	}
	r.mu.Lock()
	h := r.live[id]
	r.mu.Unlock()
	if h != nil {
		return h
	}
	for i := range r.ring {
		if h := r.ring[i].Load(); h != nil && h.info.ID == id {
			return h
		}
	}
	return nil
}

// List returns every known handle, newest first: live runs in reverse
// admission order, then retained completed runs in reverse completion
// order.
func (r *Registry) List() []*RunHandle {
	r.mu.Lock()
	out := make([]*RunHandle, 0, len(r.live)+len(r.ring))
	for _, h := range r.live {
		out = append(out, h)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].beginSeq > out[j].beginSeq })
	nLive := len(out)
	for i := range r.ring {
		if h := r.ring[i].Load(); h != nil {
			out = append(out, h)
		}
	}
	completed := out[nLive:]
	// doneSeq is written before the handle is published to the ring and
	// immutable after, so reading it unlocked here is safe.
	sort.Slice(completed, func(i, j int) bool { return completed[i].doneSeq > completed[j].doneSeq })
	return out
}

// ActiveCount is one (state, scheme) cell of the live-run gauge matrix.
type ActiveCount struct {
	State, Scheme string
	Count         int
}

// ActiveCounts aggregates live runs by (state, scheme) for the
// bsmpd_runs_active gauges, in deterministic order.
func (r *Registry) ActiveCounts() []ActiveCount {
	type key struct{ state, scheme string }
	counts := make(map[key]int)
	r.mu.Lock()
	for _, h := range r.live {
		h.mu.Lock()
		k := key{h.info.State, h.info.Scheme}
		h.mu.Unlock()
		if TerminalRunState(k.state) {
			// Finish marks the record terminal before unlinking it from the
			// live map; skip the sliver in between.
			continue
		}
		counts[k]++
	}
	r.mu.Unlock()
	out := make([]ActiveCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, ActiveCount{State: k.state, Scheme: k.scheme, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State < out[j].State
		}
		return out[i].Scheme < out[j].Scheme
	})
	return out
}

// Inflight sums the running records: how many there are, and the
// vertices and phases their progress meters have counted so far.
func (r *Registry) Inflight() (runs int, vertices, phases int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.live {
		h.mu.Lock()
		if h.info.State == RunRunning {
			runs++
			if h.sample != nil {
				v, p := h.sample()
				vertices += v
				phases += p
			}
		}
		h.mu.Unlock()
	}
	return runs, vertices, phases
}

// RunCount is one (source, scheme, state) cell of the lifetime run
// counts.
type RunCount struct {
	Source, Scheme, State string
	Count                 uint64
}

// RunCounts returns the lifetime terminal counts, sorted by source,
// scheme and state.
func (r *Registry) RunCounts() []RunCount {
	r.statsMu.Lock()
	out := make([]RunCount, 0, len(r.runs))
	for k, n := range r.runs {
		out = append(out, RunCount{Source: k.source, Scheme: k.scheme, State: k.state, Count: n})
	}
	r.statsMu.Unlock()
	slices.SortFunc(out, func(a, b RunCount) int {
		return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.Scheme, b.Scheme), cmp.Compare(a.State, b.State))
	})
	return out
}

// CompletedCounts sums the lifetime terminal counts by state; every
// terminal state has an entry.
func (r *Registry) CompletedCounts() map[string]uint64 {
	out := map[string]uint64{RunDone: 0, RunCancelled: 0, RunFailed: 0, RunShed: 0}
	for _, c := range r.RunCounts() {
		out[c.State] += c.Count
	}
	return out
}

// RunHists is a snapshot of the registry's run histograms.
type RunHists struct {
	Latency   map[string]HistSnapshot // wall seconds of done runs, by scheme
	QueueWait HistSnapshot            // seconds from admission to a worker (or to giving up)
	Size      HistSnapshot            // guest vertices n·steps of done runs
	Phases    map[string]HistSnapshot // wall seconds of completed phases, by phase
}

// Hists snapshots the run histograms.
func (r *Registry) Hists() RunHists {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	snap := func(m map[string]*Histogram) map[string]HistSnapshot {
		out := make(map[string]HistSnapshot, len(m))
		for k, h := range m {
			out[k] = h.Snapshot()
		}
		return out
	}
	return RunHists{
		Latency:   snap(r.latency),
		QueueWait: r.queueWait.Snapshot(),
		Size:      r.size.Snapshot(),
		Phases:    snap(r.phases),
	}
}

// Len reports the live-run count and the number of retained completed
// records.
func (r *Registry) Len() (live, completed int) {
	r.mu.Lock()
	live = len(r.live)
	r.mu.Unlock()
	if n := r.head.Load(); n < uint64(len(r.ring)) {
		completed = int(n)
	} else {
		completed = len(r.ring)
	}
	return live, completed
}
