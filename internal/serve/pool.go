package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrQueueFull reports that the worker pool's bounded queue had no room
// for the job — the daemon's load-shedding signal, mapped to HTTP 429.
var ErrQueueFull = errors.New("serve: worker queue full")

// ErrDraining reports a submission after shutdown began, mapped to 503.
var ErrDraining = errors.New("serve: server draining")

// PanicError wraps a panic recovered inside a pool job. Jobs run on
// worker goroutines, outside the HTTP handler's recover middleware, so
// an unrecovered panic there would kill the whole process; the pool
// converts it to an error the handler maps to a structured 500.
type PanicError struct{ Value any }

func (e *PanicError) Error() string { return fmt.Sprintf("serve: panic in pool job: %v", e.Value) }

// Pool is a bounded worker pool: a fixed number of workers draining a
// fixed-depth queue. Simulations are CPU-bound and can run for seconds,
// so unbounded handler concurrency would let a burst of expensive
// queries grind every request to a halt; the pool caps concurrent
// simulation work at Workers, absorbs a short burst in the queue, and
// sheds anything beyond that immediately with ErrQueueFull.
type Pool struct {
	jobs chan poolJob
	wg   sync.WaitGroup

	// queued counts jobs enqueued and not yet settled — the queue-depth
	// gauge. A job settles when a worker dequeues it OR when its
	// requester gives up while it is still queued, whichever comes
	// first, so an abandoned job leaves the gauge the moment nobody is
	// waiting on it rather than when a worker eventually skips it.
	queued atomic.Int64

	mu     sync.Mutex
	closed bool
}

type poolJob struct {
	ctx  context.Context
	fn   func(ctx context.Context) (any, error)
	done chan poolResult
	// queued points at the pool's depth gauge; settled guarantees the
	// decrement happens exactly once even though both the worker (at
	// dequeue) and the requester (on cancellation while queued) race to
	// settle the job.
	queued  *atomic.Int64
	settled *atomic.Bool
}

// settle ends the job's queue residency exactly once: it decrements the
// depth gauge. Both the dequeuing worker and a requester abandoning a
// still-queued job call it; the CAS makes the second call a no-op.
func (j *poolJob) settle() {
	if j.settled.CompareAndSwap(false, true) {
		j.queued.Add(-1)
	}
}

type poolResult struct {
	val any
	err error
}

// NewPool starts workers goroutines serving a queue of depth slots
// beyond the jobs actively running.
func NewPool(workers, depth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	p := &Pool{jobs: make(chan poolJob, depth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		// Queue residency ends at dequeue — unless the requester already
		// settled the job when it gave up while queued.
		j.settle()
		// A job whose requester already gave up (deadline passed while
		// queued) is skipped rather than computed for nobody.
		if err := j.ctx.Err(); err != nil {
			j.done <- poolResult{err: err}
			continue
		}
		val, err := runJob(j.ctx, j.fn)
		j.done <- poolResult{val: val, err: err}
	}
}

func runJob(ctx context.Context, fn func(ctx context.Context) (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	return fn(ctx)
}

// Do submits fn and waits for its result or ctx expiry. A full queue
// fails fast with ErrQueueFull; a closed pool with ErrDraining. The
// worker invokes fn with the request's ctx, so a context-aware job
// observes the caller's cancellation and stops at its next checkpoint —
// releasing the worker slot promptly instead of burning CPU for a
// requester that already gave up. When ctx expires, Do returns ctx.Err()
// immediately; the buffered done channel lets the worker move on as soon
// as the (now-cancelled) job unwinds.
func (p *Pool) Do(ctx context.Context, fn func(ctx context.Context) (any, error)) (any, error) {
	j := poolJob{
		ctx: ctx, fn: fn, done: make(chan poolResult, 1),
		queued: &p.queued, settled: new(atomic.Bool),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrDraining
	}
	// The gauge covers the enqueue attempt itself so a worker dequeuing
	// (and settling) the job immediately can never drive it negative.
	p.queued.Add(1)
	select {
	case p.jobs <- j:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		p.queued.Add(-1)
		return nil, ErrQueueFull
	}
	select {
	case r := <-j.done:
		return r.val, r.err
	case <-ctx.Done():
		// The requester abandons a possibly-still-queued job. The job
		// keeps its channel slot until a worker drains it, but it leaves
		// the depth gauge here, exactly once, even if a worker dequeues
		// it concurrently.
		j.settle()
		return nil, ctx.Err()
	}
}

// QueueDepth reports the number of jobs currently waiting for a worker.
// Abandoned jobs leave the count when their requester gives up, not when
// a worker eventually drains them.
func (p *Pool) QueueDepth() int64 { return p.queued.Load() }

// Close stops accepting jobs and blocks until every queued and running
// job has finished — the graceful-drain half of server shutdown.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
