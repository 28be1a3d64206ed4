package simulate

import (
	"context"
	"sync/atomic"

	"bsmp/internal/obs"
)

// Progress is the externally sampled step-progress meter a caller can
// attach to a simulation context with WithProgress. The engines only
// ever Add to the counters (amortized, see execCtx); readers sample the
// atomics concurrently, e.g. the serving layer's in-flight gauges.
//
// The meter is host-side bookkeeping only: it never touches the cost
// ledger, so attaching one cannot perturb virtual times.
type Progress struct {
	// Vertices counts dag vertices executed (guest steps across all
	// simulated nodes, leaf kernel points, functional-replay work).
	Vertices atomic.Int64
	// Phases counts completed phase/recursion boundaries: one per
	// child of the Proposition 2 recursion (unidc and blocked runs) and
	// one per schedule phase.
	Phases atomic.Int64
}

type progressKeyType struct{}

// WithProgress returns a context carrying p; simulations started under
// the returned context report step progress into p.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	return context.WithValue(ctx, progressKeyType{}, p)
}

// ProgressFrom returns the Progress attached by WithProgress, or nil.
func ProgressFrom(ctx context.Context) *Progress {
	p, _ := ctx.Value(progressKeyType{}).(*Progress)
	return p
}

// checkInterval is the amortization window: the engines poll the
// context's done channel (and flush the progress meter) once per this
// many counted vertices, so the per-vertex cost of cancellability is an
// integer increment and a compare. Recursion/phase boundaries poll
// unconditionally via checkpoint, bounding cancellation latency by
// min(checkInterval vertices, one phase) of work.
const checkInterval = 1024

// execCtx is the per-run execution context threaded through every
// engine. It wraps the caller's context.Context with an amortized
// cancellation poll and the optional Progress meter. All checks happen
// on the host side, between charged operations — they never interact
// with the cost meters, which keeps virtual times of a never-cancelled
// run bit-identical to a run without any context at all.
type execCtx struct {
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), nil for Background-like contexts
	prog    *Progress
	tr      *obs.Tracer // span tracing; nil for untraced runs
	pending int         // vertices counted since the last flush
}

// newExecCtx builds the execution context for ctx. For contexts that
// can never be cancelled and carry no meter (context.Background()),
// every step() reduces to an add-and-compare on a local int.
func newExecCtx(ctx context.Context) *execCtx {
	return &execCtx{ctx: ctx, done: ctx.Done(), prog: ProgressFrom(ctx), tr: obs.FromContext(ctx)}
}

// step counts n executed vertices and, once checkInterval have
// accumulated, flushes them to the meter and polls cancellation.
func (e *execCtx) step(n int) error {
	e.pending += n
	if e.pending < checkInterval {
		return nil
	}
	return e.flush()
}

// hook returns e.step as a network.StepHook, or nil when the context
// can never be cancelled and carries no meter — then the guest stepper
// skips the per-step indirect call entirely.
func (e *execCtx) hook() func(int) error {
	if e.done == nil && e.prog == nil {
		return nil
	}
	return e.step
}

// poll is one unamortized, non-blocking cancellation check that counts
// nothing: planning-phase recursions (spaceNeeded) run before the first
// simulated vertex, where the per-node work dwarfs a channel poll, so a
// cancelled run unwinds out of planning promptly instead of only after
// the whole space computation completes.
func (e *execCtx) poll() error {
	if e.done == nil {
		return nil
	}
	select {
	case <-e.done:
		return e.ctx.Err()
	default:
		return nil
	}
}

// checkpoint marks a completed phase/recursion boundary: it counts the
// phase, flushes pending vertices, and polls cancellation regardless of
// the amortization window, so deep recursions with tiny leaves still
// observe cancellation promptly.
func (e *execCtx) checkpoint() error {
	if e.prog != nil {
		e.prog.Phases.Add(1)
	}
	return e.flush()
}

// flush publishes pending vertex counts and performs one non-blocking
// poll of the done channel.
func (e *execCtx) flush() error {
	e.publish()
	if e.done == nil {
		return nil
	}
	select {
	case <-e.done:
		return e.ctx.Err()
	default:
		return nil
	}
}

// publish hands pending vertex counts to the meter without polling
// cancellation. Every engine entry defers it, so a run that returns has
// published every vertex it counted, not just whole checkIntervals.
func (e *execCtx) publish() {
	if e.prog != nil && e.pending > 0 {
		e.prog.Vertices.Add(int64(e.pending))
	}
	e.pending = 0
}
