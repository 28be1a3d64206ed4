package simulate

import (
	"context"
	"errors"
	"testing"
	"time"

	"bsmp/internal/guest"
)

// Cancelling a context mid-recursion stops BlockedD2 at its next
// cooperative checkpoint: the call returns context.Canceled within a
// small wall-clock bound instead of finishing the remaining (large)
// simulation.
func TestBlockedD2CancelMidRecursion(t *testing.T) {
	// Sized so the recursion reports progress within the watch deadline
	// even under the race detector (the previous 4096/steps=128 tuple
	// spent its whole deadline in pre-recursion setup under -race), while
	// still running long enough that cancellation lands mid-recursion.
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 3}, Side: 32}
	var p Progress
	ctx, cancel := context.WithCancel(WithProgress(context.Background(), &p))
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := BlockedContext(ctx, 2, 1024, 4, 64, 0, prog)
		done <- err
	}()
	// Wait until the run has demonstrably entered the recursion (the
	// progress meter only advances from inside the executor), then pull
	// the plug.
	deadline := time.Now().Add(10 * time.Second)
	for p.Vertices.Load() == 0 && p.Phases.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("simulation never reported progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("BlockedContext d=2 after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("BlockedContext d=2 did not return promptly after cancellation")
	}
}

// The planning recursion (spaceNeeded) walks the whole domain tree
// before the first simulated vertex — seconds of work at this size. A
// pre-cancelled context must abort out of planning, not only at the
// first execution checkpoint after planning completes (which it did
// once: ~12s of uncancellable setup for this very tuple).
func TestBlockedPlanningCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	grid := guest.AsNetwork{G: guest.MixCA{Seed: 3}, Side: 64}
	start := time.Now()
	_, err := BlockedContext(ctx, 2, 4096, 4, 513, 0, grid)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BlockedContext d=2 with pre-cancelled ctx = %v, want context.Canceled", err)
	}
	// The fixed path unwinds in milliseconds; the bound is generous to
	// absorb slow machines and -race, while still far below the seconds
	// the unfixed planning recursion burned.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled planning took %v, want prompt unwind", elapsed)
	}
}

// An already-cancelled context stops every engine at its first
// checkpoint; none of them runs the simulation to completion.
func TestPreCancelledContextStopsEveryEngine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	line := guest.AsNetwork{G: guest.MixCA{Seed: 3}}
	grid := guest.AsNetwork{G: guest.MixCA{Seed: 3}, Side: 8}
	runs := map[string]func() error{
		"NaiveContext": func() error {
			_, err := NaiveContext(ctx, 1, 64, 4, 4, 64, line)
			return err
		},
		"UniDCContext": func() error {
			_, err := UniDCContext(ctx, 1, 64, 64, 8, guest.Rule90{})
			return err
		},
		"UniNaiveDagContext": func() error {
			_, err := UniNaiveDagContext(ctx, 1, 64, 64, guest.Rule90{})
			return err
		},
		"BlockedContext d=1": func() error {
			_, err := BlockedContext(ctx, 1, 64, 4, 64, 0, line)
			return err
		},
		"BlockedContext d=2": func() error {
			_, err := BlockedContext(ctx, 2, 64, 4, 8, 0, grid)
			return err
		},
		"MultiContext d=1": func() error {
			_, err := MultiContext(ctx, 1, 64, 4, 4, 64, line, MultiOptions{})
			return err
		},
		"CoopBlockContext": func() error {
			_, err := CoopBlockContext(ctx, 64, 4, 16, 8, 64, line)
			return err
		},
		"GuestTimeContext": func() error {
			_, err := GuestTimeContext(ctx, 1, 64, 4, 64, line)
			return err
		},
		"RunSchemeContext": func() error {
			_, err := RunSchemeContext(ctx, "blocked", 1, 64, 1, 4, 64, line, SchemeConfig{})
			return err
		},
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with pre-cancelled ctx = %v, want context.Canceled", name, err)
		}
	}
}

// A live but never-cancelled context must not perturb the cost model:
// the virtual times are bit-identical to the context-free run, while the
// attached Progress observes real forward motion. This exercises the
// done != nil path of the execution context (context.Background takes
// the done == nil fast path).
func TestGoldenTimesBitIdenticalUnderLiveContext(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 3}}
	base, err := BlockedContext(context.Background(), 1, 64, 4, 16, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	var p Progress
	ctx, cancel := context.WithCancel(WithProgress(context.Background(), &p))
	defer cancel()
	got, err := BlockedContext(ctx, 1, 64, 4, 16, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != base.Time {
		t.Errorf("Time under live ctx = %v, want bit-identical %v", got.Time, base.Time)
	}
	if got.Space != base.Space {
		t.Errorf("Space under live ctx = %d, want %d", got.Space, base.Space)
	}
	if p.Vertices.Load() == 0 {
		t.Error("Progress.Vertices never advanced during the run")
	}
	if p.Phases.Load() == 0 {
		t.Error("Progress.Phases never advanced during the run")
	}

	mbase, err := MultiContext(context.Background(), 1, 64, 4, 4, 64, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mgot, err := MultiContext(ctx, 1, 64, 4, 4, 64, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mgot.Time != mbase.Time || mgot.PrepTime != mbase.PrepTime {
		t.Errorf("MultiD1 under live ctx = (%v, %v), want (%v, %v)",
			mgot.Time, mgot.PrepTime, mbase.Time, mbase.PrepTime)
	}
}

// The unified memo store honors its capacity bound with FIFO eviction
// and accurate hit/miss/eviction counters (exercised here through the
// kernel-kind adapter a fresh local store instance).
func TestKernelCacheBounded(t *testing.T) {
	const cap_ = 64
	c := &memoStore{capacity: cap_, entries: make(map[memoID]memoVal), stats: make(map[levelID]*levelCounters)}
	const extra = 10
	for i := 0; i < cap_+extra; i++ {
		c.store(memoKernel, 0, kernelKey{d: 1, s: i, m: 1}, float64(i))
	}
	snap := func() (int, int64, int64, int64) {
		c.mu.Lock()
		defer c.mu.Unlock()
		var h, ms, ev int64
		for _, lc := range c.stats {
			h += lc.hits
			ms += lc.misses
			ev += lc.evicted
		}
		return len(c.entries), h, ms, ev
	}
	entries, _, _, evictions := snap()
	if entries != cap_ {
		t.Errorf("entries = %d, want cap %d", entries, cap_)
	}
	if evictions != extra {
		t.Errorf("evictions = %d, want %d", evictions, extra)
	}
	// FIFO: the first `extra` keys are gone, the newest survive.
	if _, ok := c.load(memoKernel, 0, kernelKey{d: 1, s: 0, m: 1}); ok {
		t.Error("oldest entry survived past capacity")
	}
	if v, ok := c.load(memoKernel, 0, kernelKey{d: 1, s: cap_ + extra - 1, m: 1}); !ok || v.(float64) != float64(cap_+extra-1) {
		t.Errorf("newest entry = %v, %t; want value and true", v, ok)
	}
	_, hits, misses, _ := snap()
	if hits != 1 || misses != 1 {
		t.Errorf("hits, misses = %d, %d; want 1, 1", hits, misses)
	}
	// Re-storing an existing key updates in place without eviction.
	c.store(memoKernel, 0, kernelKey{d: 1, s: cap_ + extra - 1, m: 1}, 99.0)
	entries2, _, _, evictions2 := snap()
	if entries2 != cap_ || evictions2 != extra {
		t.Errorf("after update-in-place: entries %d evictions %d, want %d %d",
			entries2, evictions2, cap_, extra)
	}
	// Shrinking the capacity evicts down; a non-positive capacity
	// disables the store entirely.
	c.setCapacity(8)
	if e, _, _, _ := snap(); e != 8 {
		t.Errorf("after shrink: entries = %d, want 8", e)
	}
	c.setCapacity(0)
	if e, _, _, _ := snap(); e != 0 {
		t.Errorf("disabled store holds %d entries, want 0", e)
	}
	c.store(memoKernel, 0, kernelKey{d: 1, s: 1, m: 1}, 1.0)
	if _, ok := c.load(memoKernel, 0, kernelKey{d: 1, s: 1, m: 1}); ok {
		t.Error("disabled store served a hit")
	}
}

// While a run is live, a concurrently sampled Progress must be monotone
// non-decreasing in both counters, and once the run returns the counters
// settle at the totals of an identical reference run. The kernel cache
// is warmed first so the reference and the sampled run skip the same
// calibrations and count the same work.
func TestProgressMonotoneWhileLive(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	const n, p_, m, steps = 256, 8, 16, 64
	if _, err := MultiContext(context.Background(), 1, n, p_, m, steps, prog, MultiOptions{}); err != nil {
		t.Fatal(err) // cache warm-up
	}
	var ref Progress
	if _, err := MultiContext(WithProgress(context.Background(), &ref), 1, n, p_, m, steps, prog, MultiOptions{}); err != nil {
		t.Fatal(err)
	}

	var live Progress
	done := make(chan error, 1)
	// The run starts only once the sampler below has taken its first
	// sample, so a run that finishes quickly cannot leave it with none.
	sampled := make(chan struct{})
	go func() {
		<-sampled
		_, err := MultiContext(WithProgress(context.Background(), &live), 1, n, p_, m, steps, prog, MultiOptions{})
		done <- err
	}()

	deadline := time.After(30 * time.Second)
	var lastV, lastP int64
	samples := 0
sampling:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			break sampling
		case <-deadline:
			t.Fatal("run did not finish within 30s")
		default:
		}
		v, ph := live.Vertices.Load(), live.Phases.Load()
		if v < lastV {
			t.Fatalf("Vertices regressed: %d after %d", v, lastV)
		}
		if ph < lastP {
			t.Fatalf("Phases regressed: %d after %d", ph, lastP)
		}
		lastV, lastP = v, ph
		samples++
		if samples == 1 {
			close(sampled)
		}
	}
	if samples == 0 {
		t.Fatal("sampled the progress meter zero times")
	}

	// Settled totals match the reference run exactly.
	if got, want := live.Vertices.Load(), ref.Vertices.Load(); got != want {
		t.Errorf("final Vertices = %d, want reference total %d", got, want)
	}
	if got, want := live.Phases.Load(), ref.Phases.Load(); got != want {
		t.Errorf("final Phases = %d, want reference total %d", got, want)
	}
	if lastV > live.Vertices.Load() || lastP > live.Phases.Load() {
		t.Error("final totals below the last live sample")
	}
}

// A run that returns must have published every vertex it counted, not
// only whole checkInterval windows: the serving registry samples Progress
// once a run finishes. Every tuple below stays under checkInterval
// vertices, so nothing reaches the meter unless the engine publishes on
// return. Naive and the guest-time run count exactly n·steps.
func TestFinishedRunsPublishProgress(t *testing.T) {
	const n, m, steps = 64, 4, 8
	for _, s := range Schemes {
		p := map[int]int{1: 4, 2: 4, 3: 8}[s.D]
		if !s.Multiproc || s.Name == "unidc" {
			p = 1
		}
		mm := m
		if s.Name == "unidc" {
			mm = 1
		}
		prog := guest.AsNetwork{G: guest.Rule90{Seed: 5}}
		switch s.D {
		case 2:
			prog.Side = 8
		case 3:
			prog.CubeSide = 4
		}
		var pm Progress
		ctx := WithoutMemo(WithProgress(context.Background(), &pm))
		if _, err := RunSchemeContext(ctx, s.Name, s.D, n, p, mm, steps, prog, SchemeConfig{}); err != nil {
			t.Fatalf("%s d=%d: %v", s.Name, s.D, err)
		}
		got := pm.Vertices.Load()
		if got <= 0 {
			t.Errorf("%s d=%d: finished run reported %d vertices", s.Name, s.D, got)
		}
		if s.Name == "naive" && got != n*steps {
			t.Errorf("naive d=%d: finished run reported %d vertices, want %d", s.D, got, n*steps)
		}
	}
	var pm Progress
	line := guest.AsNetwork{G: guest.MixCA{Seed: 5}}
	if _, err := GuestTimeContext(WithProgress(context.Background(), &pm), 1, n, m, steps, line); err != nil {
		t.Fatal(err)
	}
	if got := pm.Vertices.Load(); got != n*steps {
		t.Errorf("GuestTimeContext reported %d vertices, want %d", got, n*steps)
	}
}
