// Package bsmp is a library-scale reproduction of
//
//	G. Bilardi and F. P. Preparata,
//	"Upper Bounds to Processor-Time Tradeoffs under Bounded-Speed
//	Message Propagation", SPAA 1995, pp. 185–194.
//
// In the paper's "limiting technology" — where message latency is
// proportional to physical distance — simulating an n-processor mesh on
// p < n processors costs more than Brent's classical n/p factor: an extra
// multiplicative locality slowdown A(n, m, p) appears, with four regimes
// depending on the memory density m. Equivalently, parallel machines
// enjoy speedups superlinear in their processor count, because deploying
// processors also buys proximity to memory.
//
// The package exposes:
//
//   - the machine models: f(x)-H-RAMs (hram), bounded-speed meshes
//     Md(n, p, m) (network), and the virtual-time cost engine (cost);
//   - the computation model: the dags G_T(H) of Definition 3 (dag), the
//     diamond/octahedron/tetrahedron domains and the Figure 1–4
//     decompositions (lattice), and the topological-separator executor of
//     Propositions 2–3 (separator);
//   - the paper's simulation algorithms: naive (Prop. 1), uniprocessor
//     divide-and-conquer for d = 1 and 2 (Thms. 2, 5), the blocked
//     general-m scheme (Thm. 3), and the multiprocessor scheme with
//     memory rearrangement and cooperating mode (Thm. 4 / Thm. 1);
//   - the closed-form bounds (analytic) and the experiment harness that
//     reproduces every theorem and figure (exp).
//
// Everything is deterministic and functionally verified: every simulation
// reproduces, bit-exactly, the output of a direct execution of the same
// guest computation, while virtual time accumulates per the paper's cost
// model. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package bsmp

import (
	"context"
	"fmt"
	"strings"

	"bsmp/internal/analytic"
	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/exp"
	"bsmp/internal/guest"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
	"bsmp/internal/obs"
	"bsmp/internal/simulate"
)

// Word is the machine word carried by every memory cell and message.
type Word = hram.Word

// Time is virtual model time (unit: one instruction at address 0).
type Time = cost.Time

// Machine is the mesh machine Md(n, p, m) of Definition 2.
type Machine = network.Machine

// NewMachine builds Md(n, p, m): a d-dimensional mesh (d in {1, 2, 3}) of
// p hierarchical-memory nodes with total volume n and memory density m.
// It panics on malformed geometry (see network.New); use ValidateParams
// to pre-check caller-supplied tuples.
func NewMachine(d, n, p, m int) *Machine { return network.New(d, n, p, m) }

// Program is a synchronous network computation: per-node m-word memory
// plus a broadcast value, in the style of Definition 3.
type Program = network.Program

// DagProgram is the pure dag view of a computation (inputs at t = 0 and a
// step rule), used by the m = 1 theorems.
type DagProgram = dag.Program

// Point is a dag vertex position (X, Y, T).
type Point = lattice.Point

// Result reports a simulation: outputs, final memories, virtual time, and
// a cost ledger.
type Result = simulate.Result

// MultiOptions configures the Theorem 4 simulation; zero value = full
// scheme, flags ablate the rearrangement or the cooperating mode.
type MultiOptions = simulate.MultiOptions

// MultiResult extends Result with multiprocessor accounting.
type MultiResult = simulate.MultiResult

// FaultReport carries the fault-mask accounting of a multi-faulty run
// (dead processors/cells, the effective sub-configuration, and the
// planning stretch factors).
type FaultReport = simulate.FaultReport

// RunGuest executes prog for steps steps on the fully parallel machine
// (P == N) with cost accounting, returning outputs and elapsed time Tn.
func RunGuest(m *Machine, prog Program, steps int) ([]Word, Time) {
	out, elapsed, _ := network.RunGuest(m, prog, steps, nil) // a nil hook never fails
	return out, elapsed
}

// GuestTimeContext measures Tn for Md(n, n, m) running prog — the
// denominator of every slowdown in the paper. The run polls cancellation
// cooperatively and reports progress to any attached Progress; a
// never-cancelled run measures the same time. Malformed geometry gets a
// *ParamError, never a panic.
func GuestTimeContext(ctx context.Context, d, n, m, steps int, prog Program) (Time, error) {
	return simulate.GuestTimeContext(ctx, d, n, m, steps, prog)
}

// UniNaiveContext runs the unsophisticated uniprocessor baseline over
// the m = 1 guest dag that scheme "unidc" divides and conquers: slowdown
// Θ(n^(1+1/d)). Malformed geometry gets a *ParamError.
func UniNaiveContext(ctx context.Context, d, n, steps int, prog DagProgram) (Result, error) {
	return simulate.UniNaiveDagContext(ctx, d, n, steps, prog)
}

// RestrictMem declares a guest that touches only m' < m memory words per
// node — the conclusions' extra-locality scenario.
type RestrictMem = guest.RestrictMem

// MultiD1CyclesContext repeats the n-step Theorem 4 simulation (scheme
// "multi", d = 1) to cover cycles·n guest steps, amortizing the one-time
// rearrangement. A malformed tuple gets a *ParamError.
func MultiD1CyclesContext(ctx context.Context, n, p, m, cycles int, prog Program, opts MultiOptions) (MultiResult, error) {
	return simulate.MultiD1CyclesContext(ctx, n, p, m, cycles, prog, opts)
}

// VerifyDag checks a dag-level result against the reference execution.
func VerifyDag(r Result, d, n int, prog DagProgram) error {
	return simulate.VerifyDag(r, d, n, prog)
}

// Scheme registry: the paper's simulation algorithms ("naive", "unidc",
// "blocked", "blocked-analytic", "multi", "multi-theta", "multi-faulty"),
// selected by name and dimension. RunSchemeContext is the package's one
// entry point for running them.

// Scheme is a named simulation algorithm entry.
type Scheme = simulate.Scheme

// SchemeConfig carries the per-run knobs a scheme may consume; the zero
// value selects every scheme's paper-optimal defaults.
type SchemeConfig = simulate.SchemeConfig

// Schemes lists the registered (algorithm, dimension) entries.
func Schemes() []Scheme { return simulate.Schemes }

// SchemeTable renders the registry as an aligned text table (one row per
// (name, d) entry, header first). It is the single rendering shared by
// `experiments -schemes` and the unknown -scheme error message in
// cmd/tradeoff, so both always agree with the registry.
func SchemeTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-2s %-5s %s\n", "name", "d", "multi", "description")
	for _, s := range Schemes() {
		multi := "-"
		if s.Multiproc {
			multi = "p>1"
		}
		fmt.Fprintf(&b, "%-16s %-2d %-5s %s\n", s.Name, s.D, multi, s.Description)
	}
	return b.String()
}

// SchemeByName returns the registered scheme for (name, d).
func SchemeByName(name string, d int) (Scheme, error) { return simulate.SchemeByName(name, d) }

// RunSchemeContext looks up (name, d) in the registry and runs it under
// ctx. It is the entry point of every registered engine. Parameters are
// validated before any machinery is constructed: a malformed tuple
// yields a *ParamError, never a panic. The selected scheme polls
// cancellation cooperatively (returning the context's error) and reports
// step progress to any Progress attached with WithProgress.
func RunSchemeContext(ctx context.Context, name string, d, n, p, m, steps int, prog Program, cfg SchemeConfig) (MultiResult, error) {
	return simulate.RunSchemeContext(ctx, name, d, n, p, m, steps, prog, cfg)
}

// ParamError is the typed rejection of a malformed parameter tuple: the
// offending field, the violated constraint, and the value. Every scheme
// registry entry point returns it (wrapped in error) instead of
// panicking.
type ParamError = simulate.ParamError

// ValidateParams checks (scheme, d, n, p, m, steps) against the
// registered scheme's constraints without running anything. The
// optional cfg carries the per-run knobs some schemes constrain (the
// multi-theta delay ratio Θ); omitting it validates the zero config. It
// returns nil for a runnable tuple, a *ParamError for a constraint
// violation, or the registry lookup error for an unknown (scheme, d)
// pair.
func ValidateParams(scheme string, d, n, p, m, steps int, cfg ...SchemeConfig) error {
	return simulate.ValidateParams(scheme, d, n, p, m, steps, cfg...)
}

// Closed-form bounds (package analytic re-exported).

// A is Theorem 1's locality-slowdown term A(n, m, p) for dimension d.
func A(d, n, m, p int) float64 { return analytic.A(d, n, m, p) }

// Slowdown is Theorem 1's full bound (n/p)·A(n, m, p).
func Slowdown(d, n, m, p int) float64 { return analytic.Slowdown(d, n, m, p) }

// Boundaries returns the three range boundaries of Theorem 1.
func Boundaries(d, n, p int) (b12, b23, b34 float64) { return analytic.Boundaries(d, n, p) }

// OptimalS is the optimal strip width s* of Theorem 4's analysis.
func OptimalS(n, m, p int) float64 { return analytic.OptimalS(n, m, p) }

// BrentSlowdown is the classical instantaneous-model slowdown ceil(n/p).
func BrentSlowdown(n, p int) float64 { return analytic.Brent(n, p) }

// NaiveSlowdownBound is Proposition 1's (n/p)^(1+1/d).
func NaiveSlowdownBound(d, n, p int) float64 { return analytic.NaiveSlowdown(d, n, p) }

// Workloads.

// Rule90 is the elementary CA 90 guest (m = 1).
type Rule90 = guest.Rule90

// MixCA is the order-sensitive dense integer CA guest (any m).
type MixCA = guest.MixCA

// AsNetwork adapts a guest to the network Program interface; set Side for
// d = 2 grids.
type AsNetwork = guest.AsNetwork

// Matrix multiplication — the paper's Section 1 example.

// MatmulInput builds deterministic sq × sq test matrices.
func MatmulInput(sq int, seed uint64) (a, b []Word) { return guest.MatmulInput(sq, seed) }

// MeshMatmul multiplies on the fully parallel mesh in Θ(√n) time.
func MeshMatmul(sq int, a, b []Word) ([]Word, Time) { return guest.MeshMatmul(sq, a, b) }

// NaiveMatmul multiplies on a uniprocessor H-RAM in Θ(n²) time.
func NaiveMatmul(sq int, a, b []Word) ([]Word, Time) { return guest.NaiveMatmul(sq, a, b) }

// BlockedMatmul multiplies on a uniprocessor H-RAM with recursive
// blocking in Θ(n^(3/2)·log n) time.
func BlockedMatmul(sq int, a, b []Word) ([]Word, Time) { return guest.BlockedMatmul(sq, a, b) }

// Experiments.

// ExperimentTable is one experiment's formatted output.
type ExperimentTable = exp.Table

// RunAllExperimentsContext reproduces every table and figure of the
// paper (quick selects reduced sizes). Experiments run concurrently on
// up to GOMAXPROCS workers; output order matches the sequential battery.
// Once ctx is cancelled no new experiment starts, in-flight experiments
// stop at their next checkpoint, and the tables of every experiment that
// finished are returned (in battery order) alongside the context's error.
func RunAllExperimentsContext(ctx context.Context, quick bool) ([]*ExperimentTable, error) {
	return exp.AllContext(ctx, exp.Scale{Quick: quick})
}

// RunAllExperimentsSequentialContext is RunAllExperimentsContext on a
// single worker, for profiling runs where interleaved experiments would
// muddy the profile.
func RunAllExperimentsSequentialContext(ctx context.Context, quick bool) ([]*ExperimentTable, error) {
	return exp.AllSequentialContext(ctx, exp.Scale{Quick: quick})
}

// Execution contexts & progress metering.

// Progress is a set of monotone counters a simulation publishes while it
// runs: guest dag vertices executed and phase/recursion boundaries
// crossed. Attach one to a context with WithProgress and sample it from
// another goroutine while the simulation is in flight.
type Progress = simulate.Progress

// WithProgress returns a context carrying p; every context-aware entry
// point in this package publishes its progress to the attached Progress.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	return simulate.WithProgress(ctx, p)
}

// ProgressFrom returns the Progress attached to ctx, or nil.
func ProgressFrom(ctx context.Context) *Progress { return simulate.ProgressFrom(ctx) }

// WithSharedReplay returns a context carrying a fresh replay share:
// runs of registry entries with SharedReplay set, started under it, that
// replay the same guest — equal (d, n, m, steps) and program, any p, Θ
// or fault density — step it once and copy the stored outputs after
// that. Results are exactly those of unshared runs. The share keeps one
// guest state; scope it to one family of runs.
func WithSharedReplay(ctx context.Context) context.Context {
	return simulate.WithSharedReplay(ctx)
}

// Span tracing.

// Tracer records a per-run tree of timed spans: every context-aware
// entry point emits spans at its phase/recursion boundaries when a
// Tracer is attached with WithTracer. Spans carry wall-clock durations
// and virtual-time deltas sampled from the cost meters — attaching a
// tracer never perturbs virtual time (the golden times stay
// bit-identical). A Tracer belongs to one run: sharing one across
// concurrent simulations is memory-safe but garbles span nesting.
type Tracer = obs.Tracer

// Span is one node of a Tracer's span tree.
type Span = obs.Span

// NewTracer returns an empty tracer with the default span cap.
func NewTracer() *Tracer { return obs.NewTracer() }

// WithTracer returns a context carrying t; simulations started under
// the returned context record their span timeline into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.WithTracer(ctx, t)
}

// TracerFrom returns the Tracer attached to ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer { return obs.FromContext(ctx) }

// KernelCacheStats reports the bounded multiprocessor kernel cache:
// resident entries, hits, misses, and capacity evictions since process
// start.
func KernelCacheStats() (entries int, hits, misses, evictions int64) {
	return simulate.KernelCacheStats()
}

// MemoStats is a snapshot of the unified memo store (kernel values,
// exact subtree traces, analytic subtree deltas) with per-(kind, level)
// hit/miss/eviction rows.
type MemoStats = simulate.MemoStats

// MemoLevelStats is one (kind, level) row of MemoStats.
type MemoLevelStats = simulate.MemoLevelStats

// MemoStatsSnapshot reports the unified memo store's capacity, totals,
// and per-(kind, level) statistics since process start.
func MemoStatsSnapshot() MemoStats { return simulate.MemoStatsSnapshot() }

// MemoCapacity reports the memo store's shared entry bound.
func MemoCapacity() int { return simulate.MemoCapacity() }

// SetMemoCapacity rebounds the unified memo store shared by every
// engine, evicting oldest entries if the store currently exceeds the new
// bound. A bound <= 0 disables memoization process-wide.
func SetMemoCapacity(n int) { simulate.SetMemoCapacity(n) }

// WithoutMemo returns a context under which simulations skip the memo
// store entirely — every subtree executes for real. Results are
// bit-identical either way; the memo-off path exists for benchmarking
// and for callers that need machine memory to reflect a full execution.
func WithoutMemo(ctx context.Context) context.Context { return simulate.WithoutMemo(ctx) }
