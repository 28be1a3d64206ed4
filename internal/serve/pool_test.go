package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(2, 4)
	defer p.Close()
	v, err := p.Do(context.Background(), func(context.Context) (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("Do = %v, %v; want 7, nil", v, err)
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})

	// Occupy the single worker...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Do(context.Background(), func(context.Context) (any, error) {
			close(started)
			<-release
			return nil, nil
		})
	}()
	<-started
	// ...and the single queue slot: the submission enqueues, then its
	// deadline fires while the worker is still busy, so Do returns but
	// the job keeps the slot.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Do(ctx, func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Do = %v, want DeadlineExceeded", err)
	}
	// Worker busy + queue slot held: the next submission sheds.
	if _, err := p.Do(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("burst Do = %v, want ErrQueueFull", err)
	}
	close(release)
	wg.Wait()
	p.Close()
}

// A job that ignores its context (non-cooperative) still runs to
// completion after the caller's deadline fires; only Close waits for it.
func TestPoolDeadlineWhileRunning(t *testing.T) {
	p := NewPool(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := p.Do(ctx, func(context.Context) (any, error) {
			close(started)
			<-release
			finished.Store(true)
			return 1, nil
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want DeadlineExceeded", err)
		}
	}()
	<-started
	<-done // caller gave up at its deadline while the job still runs
	if finished.Load() {
		t.Fatal("job finished before the caller's deadline fired")
	}
	close(release)
	p.Close() // drains: waits for the abandoned job to finish
	if !finished.Load() {
		t.Fatal("Close returned before the running job completed")
	}
}

// A cooperative job observes the request context the worker hands it:
// cancelling the request stops the job and frees the worker slot
// immediately, so the next submission runs without waiting for the
// abandoned job's natural completion.
func TestPoolCancelReleasesSlot(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	jobStopped := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := p.Do(ctx, func(jctx context.Context) (any, error) {
			close(started)
			<-jctx.Done() // a cooperative simulation: stops when cancelled
			close(jobStopped)
			return nil, jctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled Do = %v, want Canceled", err)
		}
	}()
	<-started
	cancel()
	<-done
	select {
	case <-jobStopped:
	case <-time.After(2 * time.Second):
		t.Fatal("job did not observe cancellation via the worker-provided context")
	}
	// The slot must be free: a fresh job on the single worker completes.
	v, err := p.Do(context.Background(), func(context.Context) (any, error) { return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("Do after cancel = %v, %v; want 42, nil", v, err)
	}
}

// A request cancelled while its job is still queued (never started) must
// still settle its queue accounting: the depth gauge decrements the
// moment the requester gives up — not when a worker eventually drains
// the abandoned slot — and exactly once, never twice (requester and
// worker racing to settle).
func TestPoolQueuedCancelSettlesOnce(t *testing.T) {
	p := NewPool(1, 2)

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Do(context.Background(), func(context.Context) (any, error) {
			close(started)
			<-release
			return nil, nil
		})
	}()
	<-started // the single worker is busy; its job settled at dequeue

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, func(context.Context) (any, error) { ran.Store(true); return nil, nil })
		done <- err
	}()
	for p.QueueDepth() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel() // expire the job while it is still queued
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-cancelled Do = %v, want Canceled", err)
	}
	// The gauge drops immediately — the worker is still busy and has not
	// touched the abandoned job.
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth after queued cancel = %d, want 0", d)
	}
	close(release)
	wg.Wait()
	p.Close() // the worker drains (and skips) the abandoned slot
	if ran.Load() {
		t.Fatal("worker ran a job whose requester had already given up")
	}
	// The worker's dequeue of the abandoned job must NOT re-decrement
	// the gauge.
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth after drain = %d, want 0", d)
	}
}

func TestPoolSkipsExpiredQueuedJobs(t *testing.T) {
	p := NewPool(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	queued := make(chan struct{})
	go func() {
		close(queued)
		p.Do(ctx, func(context.Context) (any, error) { ran.Store(true); return nil, nil })
	}()
	<-queued
	time.Sleep(10 * time.Millisecond) // let the job enter the queue
	cancel()                          // expire it while queued
	close(release)
	p.Close()
	if ran.Load() {
		t.Fatal("worker ran a job whose requester had already given up")
	}
}

func TestPoolCloseRejectsAndDrains(t *testing.T) {
	p := NewPool(2, 2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func(context.Context) (any, error) {
				time.Sleep(10 * time.Millisecond)
				ran.Add(1)
				return nil, nil
			})
		}()
	}
	time.Sleep(5 * time.Millisecond)
	p.Close()
	wg.Wait()
	if _, err := p.Do(context.Background(), func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do after Close = %v, want ErrDraining", err)
	}
	if ran.Load() == 0 {
		t.Fatal("Close drained without running any accepted job")
	}
	p.Close() // second Close must be safe
}
