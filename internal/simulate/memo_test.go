package simulate

import (
	"context"
	"errors"
	"testing"

	"bsmp/internal/guest"
	"bsmp/internal/hram"
	"bsmp/internal/network"
)

// The central correctness gate of the subtree memo: for every registered
// scheme, a default (memo-on) run, a WithoutMemo run, and a second
// default run against the warm cache must produce bit-identical virtual
// times and ledgers. The warm run exercises cross-run record sharing;
// the memo-off run is the pre-memo engine verbatim.
func TestMemoBitIdentityAllSchemes(t *testing.T) {
	for _, sc := range Schemes {
		if sc.Name == "blocked-analytic" {
			continue // no exact twin: validated against Brent bounds instead
		}
		var n, p, m, steps, side int
		switch sc.D {
		case 1:
			n, steps = 64, 16
		case 2:
			side = 8
			n, steps = side*side, 8
		default:
			side = 4
			n, steps = side*side*side, 4
		}
		p = 1
		if sc.Multiproc {
			p = 4
			if sc.D == 3 {
				p = 8
			}
		}
		m = 4
		if sc.Name == "unidc" {
			m = 1
		}
		var prog network.Program
		switch {
		case sc.Name == "unidc" && sc.D == 2:
			prog = guest.AsNetwork{G: guest.Rule90{Seed: 1}, Side: side}
		case sc.Name == "unidc" && sc.D == 3:
			prog = guest.AsNetwork{G: guest.Rule90{Seed: 1}, CubeSide: side}
		case sc.Name == "unidc":
			prog = guest.AsNetwork{G: guest.Rule90{Seed: 1}}
		case sc.D == 2:
			prog = guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: side}
		case sc.D == 3:
			prog = guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: side}
		default:
			prog = guest.AsNetwork{G: guest.MixCA{Seed: 9}}
		}

		off, err := RunSchemeContext(WithoutMemo(context.Background()), sc.Name, sc.D, n, p, m, steps, prog, SchemeConfig{})
		if err != nil {
			t.Fatalf("%s d=%d memo-off: %v", sc.Name, sc.D, err)
		}
		for _, pass := range []string{"cold", "warm"} {
			on, err := RunSchemeContext(context.Background(), sc.Name, sc.D, n, p, m, steps, prog, SchemeConfig{})
			if err != nil {
				t.Fatalf("%s d=%d memo-on %s: %v", sc.Name, sc.D, pass, err)
			}
			if on.Time != off.Time {
				t.Errorf("%s d=%d %s: Time %v (memo) != %v (no memo)", sc.Name, sc.D, pass, on.Time, off.Time)
			}
			if on.PrepTime != off.PrepTime {
				t.Errorf("%s d=%d %s: PrepTime %v (memo) != %v (no memo)", sc.Name, sc.D, pass, on.PrepTime, off.PrepTime)
			}
			if on.Ledger != off.Ledger {
				t.Errorf("%s d=%d %s: ledger diverged under memo", sc.Name, sc.D, pass)
			}
		}
	}
}

// cancelAfter is a MixCA-behaving guest that cancels a context after a
// fixed number of Step calls — a mid-subtree abort with a classifiable
// address pattern, so the memo is armed when the cancellation lands.
type cancelAfter struct {
	G         guest.MixCA
	remaining *int
	cancel    *context.CancelFunc
}

func (c cancelAfter) Init(node int, mem []hram.Word) hram.Word {
	return guest.AsNetwork{G: c.G}.Init(node, mem)
}

func (c cancelAfter) Address(node, step, memSize int) int {
	return c.G.Address(node, step, memSize)
}

func (c cancelAfter) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	*c.remaining--
	if *c.remaining == 0 && *c.cancel != nil {
		(*c.cancel)()
	}
	return c.G.Step2(node, step, cell, prev)
}

func (c cancelAfter) AddrClass(node, step, memSize int) (uint64, bool) {
	return c.G.AddrClass(node, step, memSize)
}

// A run cancelled mid-subtree must not publish partial memo records: a
// later run with the same program fingerprint — replaying whatever the
// cancelled run DID publish — must stay bit-identical to a memo-off run.
func TestMemoCancellationNoPoisoning(t *testing.T) {
	const n, m, steps = 64, 4, 16
	remaining := 300 // lands mid-run: 64*17 vertices total
	var cancel context.CancelFunc
	prog := cancelAfter{G: guest.MixCA{Seed: 5}, remaining: &remaining, cancel: &cancel}

	ctx, cfn := context.WithCancel(context.Background())
	cancel = cfn
	defer cfn()
	_, err := BlockedContext(ctx, 1, n, m, steps, 0, prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if remaining > 0 {
		t.Fatalf("countdown never fired (%d remaining)", remaining)
	}
	cancel = nil // disarm; the counter keeps decrementing harmlessly

	off, err := BlockedContext(WithoutMemo(context.Background()), 1, n, m, steps, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BlockedContext(context.Background(), 1, n, m, steps, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Time != off.Time || warm.Ledger != off.Ledger {
		t.Errorf("run after cancelled run diverged: Time %v vs %v — poisoned memo record", warm.Time, off.Time)
	}
	for i := range warm.Outputs {
		if warm.Outputs[i] != off.Outputs[i] {
			t.Fatalf("output %d diverged after cancelled run", i)
		}
	}
}

// WithoutMemo must fully disable replay: two consecutive memo-off runs
// both execute for real (replay leaves machine memory stale, so this
// also pins that memo-off outputs come from the machine, not the guest).
func TestWithoutMemoDisables(t *testing.T) {
	p1 := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	before := MemoStatsSnapshot()
	ctx := WithoutMemo(context.Background())
	if _, err := BlockedContext(ctx, 1, 64, 4, 16, 0, p1); err != nil {
		t.Fatal(err)
	}
	after := MemoStatsSnapshot()
	if before.Hits != after.Hits || before.Misses != after.Misses {
		t.Errorf("memo-off run touched the store: hits %d->%d misses %d->%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}
