package simulate

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"bsmp/internal/guest"
	"bsmp/internal/hram"
	"bsmp/internal/network"
	"bsmp/internal/obs"
)

// replaySpan runs f under a fresh tracer and returns its one "replay"
// span.
func replaySpan(t *testing.T, ctx context.Context, f func(ctx context.Context) (MultiResult, error)) (MultiResult, *obs.Span) {
	t.Helper()
	tr := obs.NewTracer()
	res, err := f(obs.WithTracer(ctx, tr))
	if err != nil {
		t.Fatal(err)
	}
	sps := findSpans(tr.Roots(), "replay")
	if len(sps) != 1 {
		t.Fatalf("%d replay spans, want 1", len(sps))
	}
	return res, sps[0]
}

// wantReplay checks a replay span's share attributes.
func wantReplay(t *testing.T, sp *obs.Span, shared, vertices float64) {
	t.Helper()
	if sp.Attrs["shared"] != shared || sp.Attrs["vertices"] != vertices {
		t.Fatalf("replay span shared=%v vertices=%v, want %v and %v", sp.Attrs["shared"], sp.Attrs["vertices"], shared, vertices)
	}
}

// sharedReplayCase is a guest for one registry entry plus two runs of it
// that differ only in host-side knobs: p, and Θ or the fault density
// where the scheme takes one.
func sharedReplayCase(sc Scheme) (n, p1, p2, m, steps int, prog network.Program, cfg1, cfg2 SchemeConfig) {
	switch sc.D {
	case 1:
		n, p1, p2, m, steps, prog = 64, 4, 8, 4, 16, netProg(0)
	case 2:
		n, p1, p2, m, steps, prog = 64, 4, 16, 2, 8, netProg(8)
	default:
		n, p1, p2, m, steps, prog = 512, 8, 64, 2, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8}
	}
	switch sc.Name {
	case "multi-theta":
		cfg1.Multi.Theta, cfg2.Multi.Theta, cfg2.Multi.ThetaSeed = 2, 3, 7
	case "multi-faulty":
		cfg2.Multi.Faults, cfg2.Multi.FaultSeed = 0.1, 3
	}
	return
}

// sharedDigest returns the digest a run under a replay share carries,
// failing unless the run carries that digest alone.
func sharedDigest(t *testing.T, res MultiResult) string {
	t.Helper()
	if res.Outputs != nil || res.Memory != nil || res.digest == "" {
		t.Fatalf("a run under a share carries outputs %v, memory %v, digest %q; want the digest alone",
			res.Outputs != nil, res.Memory != nil, res.digest)
	}
	return res.Digest()
}

// pureDigest is the digest of RunGuestPure's final state.
func pureDigest(d, n, m, steps int, prog network.Program) string {
	return network.Digest(network.RunGuestPure(d, n, m, steps, prog))
}

// Every registry entry that takes its outputs from the replay shares it:
// a second run of the same guest at another p (and Θ or fault density)
// takes the stored state's digest, stepping nothing, and returns exactly
// what an unshared run returns, with the digest in place of the state.
// A third run at the first p takes the same digest again.
func TestSharedReplayRegistry(t *testing.T) {
	entries := 0
	for _, sc := range Schemes {
		if !sc.SharedReplay {
			continue
		}
		entries++
		t.Run(fmt.Sprintf("%s/d=%d", sc.Name, sc.D), func(t *testing.T) {
			n, p1, p2, m, steps, prog, cfg1, cfg2 := sharedReplayCase(sc)
			run := func(p int, cfg SchemeConfig) func(ctx context.Context) (MultiResult, error) {
				return func(ctx context.Context) (MultiResult, error) {
					return sc.Run(ctx, n, p, m, steps, prog, cfg)
				}
			}
			ctx := WithSharedReplay(context.Background())
			first, sp := replaySpan(t, ctx, run(p1, cfg1))
			wantReplay(t, sp, 0, float64(n*steps))
			second, sp := replaySpan(t, ctx, run(p2, cfg2))
			wantReplay(t, sp, 1, 0)
			if sc.Name == "multi-faulty" && second.Faults.EffectiveP < 2 {
				t.Fatalf("fault mask left p_eff = %d: the run took the p = 1 fallback", second.Faults.EffectiveP)
			}

			solo, err := sc.Run(context.Background(), n, p2, m, steps, prog, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			want := solo.Digest()
			if got := sharedDigest(t, second); got != want {
				t.Fatalf("shared run digest %s, solo run %s", got, want)
			}
			solo.Outputs, solo.Memory, solo.digest = nil, nil, want
			if !reflect.DeepEqual(second, solo) {
				t.Fatalf("shared run differs from a solo run:\n%+v\n%+v", second.Result, solo.Result)
			}
			if sharedDigest(t, first) != want {
				t.Fatal("outputs depend on p")
			}
			third, sp := replaySpan(t, ctx, run(p1, cfg1))
			wantReplay(t, sp, 1, 0)
			if sharedDigest(t, third) != want {
				t.Fatal("the share's digest changed between runs")
			}
		})
	}
	if entries != 9 {
		t.Fatalf("%d registry entries share the replay, want 9 (multi, multi-theta, multi-faulty at d = 1, 2, 3)", entries)
	}
}

// A row at the share's step count costs no copy of the guest: a shared
// run of an n = 4096, m = 4 guest allocates fewer bytes than the guest's
// n·m memory words, where a copy of them and of the outputs, with a
// slice header per node, once cost more than twice that.
func TestSharedReplayRowAllocs(t *testing.T) {
	const n, m, steps = 4096, 4, 32
	prog := netProg(0)
	// The unshared run measures the kernel the shared one prices with.
	if _, err := MultiContext(context.Background(), 1, n, 16, m, steps, prog, MultiOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := WithSharedReplay(context.Background())
	if _, err := MultiContext(ctx, 1, n, 8, m, steps, prog, MultiOptions{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := MultiContext(ctx, 1, n, 16, m, steps, prog, MultiOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sharedDigest(t, res) != pureDigest(1, n, m, steps, prog) {
		t.Fatal("digest differs from RunGuestPure's")
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(n*m*8); got >= bound {
		t.Fatalf("a shared row allocated %d bytes, want fewer than the guest's %d memory bytes", got, bound)
	}
}

// A share holds one guest: another seed, memory density or program
// under the same share replays from step 0, as does a shorter run of
// the held guest, while a longer one resumes from the held step; every
// run gets the digest of the guest's own state.
func TestSharedReplayKey(t *testing.T) {
	ctx := WithSharedReplay(context.Background())
	const n, p = 64, 4
	for i, tc := range []struct {
		seed           uint64
		m, steps, from int
		shared         float64
	}{
		{9, 4, 16, 0, 0},
		{9, 4, 16, 16, 1},
		{10, 4, 16, 0, 0},
		{10, 4, 32, 16, 0}, // resumes from step 16
		{10, 4, 16, 0, 0},  // shorter than the held 32 steps: from step 0
		{10, 8, 32, 0, 0},
		{10, 8, 32, 32, 1},
		{10, 8, 32, 0, 0}, // Rule90 with MixCA's seed: another program
	} {
		prog := guest.AsNetwork{G: guest.MixCA{Seed: tc.seed}}
		if i == 7 {
			prog.G = guest.Rule90{Seed: tc.seed}
		}
		res, sp := replaySpan(t, ctx, func(ctx context.Context) (MultiResult, error) {
			return MultiContext(ctx, 1, n, p, tc.m, tc.steps, prog, MultiOptions{})
		})
		wantReplay(t, sp, tc.shared, float64(n*(tc.steps-tc.from)))
		if got := sp.Attrs["resumed_from"]; got != float64(tc.from) {
			t.Fatalf("run %d: resumed_from %v, want %d", i, got, tc.from)
		}
		if sharedDigest(t, res) != pureDigest(1, n, tc.m, tc.steps, prog) {
			t.Fatalf("run %d: digest differs from RunGuestPure's", i)
		}
	}
}

// cancelSpec is what a cancelOnStep program cancels and when; the
// program holds it by pointer, so changing it between runs leaves the
// program's identity (progFingerprint) unchanged.
type cancelSpec struct {
	at     int
	cancel context.CancelFunc
}

// cancelOnStep cancels spec.cancel when the replay steps node 0 at step
// spec.at (never when at is 0).
type cancelOnStep struct {
	network.Program
	spec *cancelSpec
}

func (c cancelOnStep) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	if node == 0 && step == c.spec.at {
		c.spec.cancel()
	}
	return c.Program.Step(node, step, cell, prev)
}

// A replay cancelled midway stores nothing: the next run of the guest
// under the same share steps it in full. (d = 2 calibrates on a fixed
// internal guest, so the wrapped program runs only in the replay.)
func TestSharedReplayCancelledStoresNothing(t *testing.T) {
	share := WithSharedReplay(context.Background())
	ctx, cancel := context.WithCancel(share)
	const n, m, steps = 64, 2, 64
	prog := cancelOnStep{Program: netProg(8), spec: &cancelSpec{at: 4, cancel: cancel}}
	if _, err := MultiContext(ctx, 2, n, 4, m, steps, prog, MultiOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, sp := replaySpan(t, share, func(ctx context.Context) (MultiResult, error) {
		return MultiContext(ctx, 2, n, 16, m, steps, prog, MultiOptions{})
	})
	wantReplay(t, sp, 0, n*steps)
	if sharedDigest(t, res) != pureDigest(2, n, m, steps, prog) {
		t.Fatal("digest differs from RunGuestPure's")
	}
}

// Under one share, a guest resumes across step counts: 16 steps, then 32
// steps stepping only the 16 new ones, then 16 steps from step 0 again.
// An advance cancelled midway empties the share, so the next run steps
// in full. Every run's digest equals RunGuestPure's at its own steps.
// (d = 2 calibrates on a fixed internal guest, so the wrapped program
// runs only in the replay.)
func TestSharedReplayResumes(t *testing.T) {
	share := WithSharedReplay(context.Background())
	const n, m = 64, 2
	spec := &cancelSpec{}
	prog := cancelOnStep{Program: netProg(8), spec: spec}
	run := func(ctx context.Context, steps int, from float64) {
		t.Helper()
		res, sp := replaySpan(t, ctx, func(ctx context.Context) (MultiResult, error) {
			return MultiContext(ctx, 2, n, 4, m, steps, prog, MultiOptions{})
		})
		wantReplay(t, sp, 0, float64(n)*(float64(steps)-from))
		if sp.Attrs["resumed_from"] != from {
			t.Fatalf("steps %d: resumed_from %v, want %v", steps, sp.Attrs["resumed_from"], from)
		}
		if sharedDigest(t, res) != pureDigest(2, n, m, steps, prog) {
			t.Fatalf("steps %d: digest differs from RunGuestPure's", steps)
		}
	}
	run(share, 16, 0)
	run(share, 32, 16)
	run(share, 16, 0)

	ctx, cancel := context.WithCancel(share)
	spec.at, spec.cancel = 40, cancel
	if _, err := MultiContext(ctx, 2, n, 4, m, 64, prog, MultiOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	spec.at = 0
	run(share, 64, 0)
}

// MultiD1Cycles charges the n-step schedule once and replays the guest
// once, for all cycles·n steps.
func TestMultiD1CyclesReplaysOnce(t *testing.T) {
	const n, p, m, cycles = 32, 4, 2, 3
	prog := netProg(0)
	res, sp := replaySpan(t, context.Background(), func(ctx context.Context) (MultiResult, error) {
		return MultiD1CyclesContext(ctx, n, p, m, cycles, prog, MultiOptions{})
	})
	if got := sp.Attrs["vertices"]; got != n*cycles*n {
		t.Fatalf("replay vertices = %v, want %d", got, n*cycles*n)
	}
	outs, mem := network.RunGuestPure(1, n, m, cycles*n, prog)
	if !reflect.DeepEqual(res.Outputs, outs) || !reflect.DeepEqual(res.Memory, mem) {
		t.Fatal("outputs differ from RunGuestPure at cycles·n steps")
	}
}

// Concurrent runs of one guest under one share all return the digest of
// the guest's state, whichever of them replays.
func TestSharedReplayConcurrent(t *testing.T) {
	ctx := WithSharedReplay(context.Background())
	const n, m, steps = 64, 4, 16
	prog := netProg(0)
	want := pureDigest(1, n, m, steps, prog)
	var wg sync.WaitGroup
	for _, p := range []int{2, 4, 8, 16} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res, err := MultiContext(ctx, 1, n, p, m, steps, prog, MultiOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Outputs != nil || res.Memory != nil || res.Digest() != want {
				t.Errorf("p=%d: digest %s with outputs %v, want RunGuestPure's %s alone",
					p, res.Digest(), res.Outputs != nil, want)
			}
		}(p)
	}
	wg.Wait()
}
