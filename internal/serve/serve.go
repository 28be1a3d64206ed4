// Package serve is the bsmpd serving layer: an HTTP JSON surface over
// the scheme registry and the closed-form Theorem 1 bounds, hardened for
// adversarial traffic. The layering, outermost first:
//
//   - middleware: panic recovery (defense in depth behind the validation
//     boundary — no request can take the daemon down) and request
//     accounting;
//   - validation: bsmp.ValidateParams plus server-side size caps turn
//     every malformed or oversized tuple into a structured 4xx before
//     any machinery is constructed;
//   - result cache: an LRU keyed on the full request tuple, with
//     singleflight coalescing so a storm of identical queries costs one
//     simulation;
//   - worker pool: a bounded queue with per-request deadlines — load
//     beyond Workers+QueueDepth is shed with 429, never buffered
//     unboundedly;
//   - graceful shutdown: /healthz flips to 503 draining, in-flight
//     simulations finish, then the listener closes.
//
// Endpoints: POST /v1/run, POST /v1/sweep (NDJSON-streamed parameter
// grids), GET /v1/runs (+ /v1/runs/{id}, /v1/runs/{id}/events — the run
// registry's introspection surface), GET /v1/bounds, GET /v1/schemes,
// GET /healthz, GET /metrics (JSON), GET /metrics.prom.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bsmp"
	"bsmp/internal/obs"
)

// Config sizes the daemon. The zero value of any field selects its
// default.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Workers caps concurrently running simulations (default
	// GOMAXPROCS). A sweep replay's helper holds a worker too, so it
	// bounds the CPU-bound goroutines.
	Workers int
	// QueueDepth is the number of requests that may wait for a worker
	// beyond those running; further ones get 429 (default 64; negative
	// means no queue at all).
	QueueDepth int
	// CacheEntries sizes the result LRU (default 512; negative
	// disables caching).
	CacheEntries int
	// RequestTimeout is the per-request deadline for /v1/run (default
	// 30s). Requests that exceed it get 504; their simulation runs under
	// the request's context and stops at its next cancellation
	// checkpoint.
	RequestTimeout time.Duration
	// MaxN, MaxM, MaxSteps cap request parameters so a single query
	// cannot exhaust memory; violations get a structured 400 (defaults
	// 1<<16, 1<<12, 1<<12).
	MaxN, MaxM, MaxSteps int
	// MemoCapacity bounds the process-wide unified memo store (kernel
	// values plus subtree replay records). 0 keeps the library default
	// (simulate.DefaultMemoCapacity); a negative value disables
	// memoization entirely.
	MemoCapacity int
	// MaxSweepPoints caps how many grid points one /v1/sweep may expand
	// to (default 4096); larger grids get a structured 400.
	MaxSweepPoints int
	// SweepParallel bounds how many grid points may occupy pool slots at
	// once across ALL concurrent sweeps combined (one server-wide
	// semaphore, not a per-sweep budget), so sweep traffic as a whole
	// cannot monopolize the queue against interactive /v1/run traffic
	// (default Workers). A replay's helper holds one of these slots as
	// well as a worker, so with 1 no helper ever attaches.
	SweepParallel int
	// RegistryCapacity bounds the run registry's flight recorder — how
	// many completed run records /v1/runs retains (live runs are always
	// tracked, and the run counts and histograms cover every run ever
	// recorded). Values below 1 select the default
	// (obs.DefaultRegistryCapacity).
	RegistryCapacity int
	// Logger receives the daemon's structured JSON records: one access
	// line per request (with its generated request ID) and run
	// start/done/failed lifecycle lines. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxN == 0 {
		c.MaxN = 1 << 16
	}
	if c.MaxM == 0 {
		c.MaxM = 1 << 12
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 12
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 4096
	}
	if c.SweepParallel < 1 {
		c.SweepParallel = c.Workers
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return c
}

// Server is the bsmpd daemon state.
type Server struct {
	cfg      Config
	cache    *Cache
	pool     *Pool
	flight   flightGroup
	ctr      counterTable
	handler  http.Handler
	httpSrv  *http.Server
	draining atomic.Bool

	// log is the structured logger; bootID + reqSeq generate the
	// per-request IDs stamped on responses and every log record.
	log    *slog.Logger
	bootID string
	reqSeq atomic.Uint64

	// registry is the run registry + flight recorder behind /v1/runs,
	// and the one source of run counts, run histograms and in-flight
	// gauges. runSeq numbers run IDs within this boot.
	registry *obs.Registry
	runSeq   atomic.Uint64

	// baseCtx is the server's lifetime context: every request context is
	// tied to it, so cancelling baseCancel hard-stops every in-flight
	// simulation at its next cooperative checkpoint. Shutdown pulls this
	// lever when its drain budget expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// sweepsLive registers every streaming sweep for the live gauges;
	// sweepSem bounds total sweep-held pool slots across all concurrent
	// sweeps.
	sweepMu    sync.Mutex
	sweepsLive map[*sweepProgress]struct{}
	sweepSem   chan struct{}

	// runScheme executes a validated run request under ctx; tests
	// substitute it to inject blocking or panicking work behind the full
	// middleware, cache, and pool stack.
	runScheme func(ctx context.Context, req RunRequest) (*RunResponse, error)
	// guest builds the program execute runs (buildGuest); tests wrap it
	// to see inside the real engine's replay.
	guest func(RunRequest) bsmp.Program
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheEntries),
		pool:       NewPool(cfg.Workers, cfg.QueueDepth),
		log:        cfg.Logger,
		bootID:     newBootID(),
		registry:   obs.NewRegistry(cfg.RegistryCapacity),
		sweepsLive: make(map[*sweepProgress]struct{}),
		sweepSem:   make(chan struct{}, cfg.SweepParallel),
	}
	s.ctr.sweepRowLatency = obs.NewHistogram(obs.LatencyBounds...)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.runScheme, s.guest = s.execute, buildGuest
	if cfg.MemoCapacity != 0 {
		bsmp.SetMemoCapacity(cfg.MemoCapacity)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunRecord)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	mux.HandleFunc("/v1/bounds", s.handleBounds)
	mux.HandleFunc("/v1/schemes", s.handleSchemes)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.prom", s.handleMetricsProm)
	s.handler = s.withRecover(s.withCounters(mux))
	return s
}

// Handler returns the fully wrapped HTTP handler (also used by the
// httptest-based unit tests).
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe serves until the listener fails or Shutdown runs.
func (s *Server) ListenAndServe() error {
	s.httpSrv = &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	err := s.httpSrv.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the daemon gracefully: /healthz flips to draining, the
// HTTP server stops accepting and waits for in-flight handlers (each of
// which waits for its simulation), then the pool's remaining queue is
// drained. ctx bounds the graceful phase; when it expires, Shutdown
// hard-cancels the server's base context so every in-flight simulation
// stops at its next cooperative checkpoint, then waits for the pool to
// unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ctr.add(ctrDraining)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain budget exhausted: stop in-flight simulations instead of
		// abandoning them mid-CPU-burn. Every request context descends
		// from baseCtx, so the pool drains promptly.
		s.baseCancel()
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	s.baseCancel()
	return err
}

// newBootID returns the random prefix of this process's request IDs, so
// IDs from distinct daemon incarnations never collide in aggregated
// logs.
func newBootID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}
