package simulate

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// Every registry entry that takes its outputs from the replay shares it:
// a second run of the same guest at another p (and Θ or fault density)
// copies the stored state, stepping nothing, and returns exactly what an
// unshared run returns. Results never alias the share or each other.
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
			if !reflect.DeepEqual(second, solo) {
				t.Fatalf("shared run differs from a solo run:\n%+v\n%+v", second.Result, solo.Result)
			}
			if !reflect.DeepEqual(first.Outputs, solo.Outputs) || !reflect.DeepEqual(first.Memories, solo.Memories) {
				t.Fatal("outputs depend on p")
			}

			first.Outputs[0] ^= 1
			first.Memories[0][0] ^= 1
			if !reflect.DeepEqual(second.Outputs, solo.Outputs) || !reflect.DeepEqual(second.Memories, solo.Memories) {
				t.Fatal("mutating one result changed another")
			}
			second.Outputs[1] ^= 1
			second.Memories[n-1][m-1] ^= 1
			third, sp := replaySpan(t, ctx, run(p1, cfg1))
			wantReplay(t, sp, 1, 0)
			if !reflect.DeepEqual(third.Outputs, solo.Outputs) || !reflect.DeepEqual(third.Memories, solo.Memories) {
				t.Fatal("mutating a result changed the share's copy")
			}
		})
	}
	if entries != 9 {
		t.Fatalf("%d registry entries share the replay, want 9 (multi, multi-theta, multi-faulty at d = 1, 2, 3)", entries)
	}
}

// A share holds one guest: another seed, step count, memory density or
// program under the same share replays, with the guest's own outputs.
func TestSharedReplayKey(t *testing.T) {
	ctx := WithSharedReplay(context.Background())
	const n, p = 64, 4
	for i, tc := range []struct {
		seed     uint64
		m, steps int
		shared   float64
	}{
		{9, 4, 16, 0},
		{9, 4, 16, 1},
		{10, 4, 16, 0},
		{10, 4, 32, 0},
		{10, 8, 32, 0},
		{10, 8, 32, 1},
		{10, 8, 32, 0}, // Rule90 with MixCA's seed: another program
	} {
		prog := guest.AsNetwork{G: guest.MixCA{Seed: tc.seed}}
		if i == 6 {
			prog.G = guest.Rule90{Seed: tc.seed}
		}
		res, sp := replaySpan(t, ctx, func(ctx context.Context) (MultiResult, error) {
			return MultiContext(ctx, 1, n, p, tc.m, tc.steps, prog, MultiOptions{})
		})
		vertices := float64(n * tc.steps)
		if tc.shared == 1 {
			vertices = 0
		}
		wantReplay(t, sp, tc.shared, vertices)
		outs, mems := network.RunGuestPure(1, n, tc.m, tc.steps, prog)
		if !reflect.DeepEqual(res.Outputs, outs) || !reflect.DeepEqual(res.Memories, mems) {
			t.Fatalf("run %d: outputs differ from RunGuestPure", i)
		}
	}
}

// cancelAtStep cancels its run's context when the replay steps node 0
// at step at: a cancellation that lands mid-replay.
type cancelAtStep struct {
	network.Program
	at     int
	cancel context.CancelFunc
}

func (c cancelAtStep) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	if node == 0 && step == c.at {
		c.cancel()
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
	prog := cancelAtStep{Program: netProg(8), at: 4, cancel: cancel}
	if _, err := MultiContext(ctx, 2, n, 4, m, steps, prog, MultiOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, sp := replaySpan(t, share, func(ctx context.Context) (MultiResult, error) {
		return MultiContext(ctx, 2, n, 16, m, steps, prog, MultiOptions{})
	})
	wantReplay(t, sp, 0, n*steps)
	outs, mems := network.RunGuestPure(2, n, m, steps, prog)
	if !reflect.DeepEqual(res.Outputs, outs) || !reflect.DeepEqual(res.Memories, mems) {
		t.Fatal("outputs differ from RunGuestPure")
	}
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
	outs, mems := network.RunGuestPure(1, n, m, cycles*n, prog)
	if !reflect.DeepEqual(res.Outputs, outs) || !reflect.DeepEqual(res.Memories, mems) {
		t.Fatal("outputs differ from RunGuestPure at cycles·n steps")
	}
}

// Concurrent runs of one guest under one share all return the guest's
// state, whichever of them replays.
func TestSharedReplayConcurrent(t *testing.T) {
	ctx := WithSharedReplay(context.Background())
	const n, m, steps = 64, 4, 16
	prog := netProg(0)
	outs, mems := network.RunGuestPure(1, n, m, steps, prog)
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
			if !reflect.DeepEqual(res.Outputs, outs) || !reflect.DeepEqual(res.Memories, mems) {
				t.Errorf("p=%d: outputs differ from RunGuestPure", p)
			}
			res.Outputs[0] ^= 1
			res.Memories[0][0] ^= 1
		}(p)
	}
	wg.Wait()
}
