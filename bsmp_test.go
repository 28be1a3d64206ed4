package bsmp

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestFacadeGuestAndNaive(t *testing.T) {
	prog := AsNetwork{G: MixCA{Seed: 1}}
	res, err := RunSchemeContext(context.Background(), "naive", 1, 16, 4, 2, 8, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(1, 16, 2, prog); err != nil {
		t.Fatal(err)
	}
	tn, _ := GuestTimeContext(context.Background(), 1, 16, 2, 8, prog)
	if tn <= 0 || res.Time <= Time(0) {
		t.Fatal("non-positive times")
	}
	if float64(res.Time)/float64(tn) < BrentSlowdown(16, 4) {
		t.Error("slowdown below Brent — impossible under the model")
	}
}

func TestFacadeUniDC(t *testing.T) {
	prog := Rule90{Seed: 2}
	res, err := RunSchemeContext(context.Background(), "unidc", 1, 16, 1, 1, 16, AsNetwork{G: prog}, SchemeConfig{Leaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDag(res.Result, 1, 16, prog); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMulti(t *testing.T) {
	prog := AsNetwork{G: MixCA{Seed: 3}}
	res, err := RunSchemeContext(context.Background(), "multi", 1, 32, 4, 2, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(1, 32, 2, prog); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBounds(t *testing.T) {
	if A(1, 1024, 1, 16) <= 0 {
		t.Error("A must be positive")
	}
	b12, b23, b34 := Boundaries(1, 1024, 16)
	if !(b12 < b23 && b23 < b34) {
		t.Error("boundaries not ordered")
	}
	if OptimalS(1024, 1, 16) <= 0 {
		t.Error("s* must be positive")
	}
	if NaiveSlowdownBound(1, 64, 1) != 4096 {
		t.Error("naive bound wrong")
	}
}

func TestFacadeMatmul(t *testing.T) {
	a, b := MatmulInput(8, 1)
	cm, tm := MeshMatmul(8, a, b)
	cn, tn := NaiveMatmul(8, a, b)
	cb, tb := BlockedMatmul(8, a, b)
	for i := range cm {
		if cm[i] != cn[i] || cm[i] != cb[i] {
			t.Fatal("products disagree")
		}
	}
	if !(tm < tn && tm < tb) {
		t.Error("mesh not fastest")
	}
}

func TestFacadeMachine(t *testing.T) {
	m := NewMachine(2, 64, 16, 2)
	if m.Spacing() != 2 || m.NodeMemory() != 8 {
		t.Error("machine geometry wrong")
	}
	out, elapsed := RunGuest(NewMachine(1, 8, 8, 1), AsNetwork{G: Rule90{}}, 4)
	if len(out) != 8 || elapsed <= 0 {
		t.Error("RunGuest failed")
	}
}

func TestFacadeExperimentsQuick(t *testing.T) {
	tabs, err := RunAllExperimentsContext(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) < 12 {
		t.Fatalf("got %d experiment tables, want >= 13 (9 E-* + 4 F-*)", len(tabs))
	}
}

func TestSuperlinearSpeedupHeadline(t *testing.T) {
	// The repository's headline sanity: the analytic mesh-vs-naive
	// speedup exceeds the processor count for large n (superlinearity).
	n := 1 << 16
	speed := float64(n) * math.Sqrt(float64(n)) // n^1.5 from the bounds
	if speed <= float64(n) {
		t.Fatal("not superlinear")
	}
}

func TestFacadeRemainingSurface(t *testing.T) {
	prog := AsNetwork{G: MixCA{Seed: 4}}

	// UniNaiveContext + the blocked scheme.
	un, err := UniNaiveContext(context.Background(), 1, 8, 8, Rule90{Seed: 1})
	if err != nil || VerifyDag(un, 1, 8, Rule90{Seed: 1}) != nil {
		t.Fatalf("UniNaiveContext: %v", err)
	}
	bl, err := RunSchemeContext(context.Background(), "blocked", 1, 16, 1, 2, 8, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Verify(1, 16, 2, prog); err != nil {
		t.Fatal(err)
	}

	// MultiD1CyclesContext and multi at d = 2.
	mc, err := MultiD1CyclesContext(context.Background(), 16, 2, 1, 2, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Verify(1, 16, 1, prog); err != nil {
		t.Fatal(err)
	}
	m2, err := RunSchemeContext(context.Background(), "multi", 2, 64, 4, 1, 4, AsNetwork{G: MixCA{Seed: 4}, Side: 8}, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Time <= 0 {
		t.Fatal("multi d=2 time")
	}

	// Bounds surface.
	if Slowdown(1, 256, 4, 8) <= 0 {
		t.Fatal("Slowdown")
	}

	// RestrictMem through the facade.
	rm, err := RunSchemeContext(context.Background(), "blocked", 1, 16, 1, 4, 8, RestrictMem{P: MixCA{Seed: 4}, Words: 2}, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Verify(1, 16, 4, RestrictMem{P: MixCA{Seed: 4}, Words: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestEntryPointsRejectMalformedGeometry drives malformed geometry into
// the facade's direct entry points, which the registry's ValidateParams
// does not guard: each must return a *ParamError on the offending field
// and never panic.
func TestEntryPointsRejectMalformedGeometry(t *testing.T) {
	ctx := context.Background()
	line := AsNetwork{G: MixCA{Seed: 1}}
	cases := []struct {
		label string
		field string
		run   func() error
	}{
		{"GuestTime d=2 n=10", "n", func() error {
			_, err := GuestTimeContext(ctx, 2, 10, 1, 4, line)
			return err
		}},
		{"GuestTime d=4", "d", func() error {
			_, err := GuestTimeContext(ctx, 4, 64, 1, 4, line)
			return err
		}},
		{"GuestTime m=0", "m", func() error {
			_, err := GuestTimeContext(ctx, 1, 8, 0, 4, line)
			return err
		}},
		{"GuestTime n=0", "n", func() error {
			_, err := GuestTimeContext(ctx, 1, 0, 1, 4, line)
			return err
		}},
		{"GuestTime steps=-1", "steps", func() error {
			_, err := GuestTimeContext(ctx, 1, 8, 1, -1, line)
			return err
		}},
		{"UniNaive steps=0", "steps", func() error {
			_, err := UniNaiveContext(ctx, 1, 8, 0, Rule90{Seed: 1})
			return err
		}},
		{"UniNaive d=4", "d", func() error {
			_, err := UniNaiveContext(ctx, 4, 8, 4, Rule90{Seed: 1})
			return err
		}},
		{"MultiD1Cycles p=3 n=8", "p", func() error {
			_, err := MultiD1CyclesContext(ctx, 8, 3, 1, 1, line, MultiOptions{})
			return err
		}},
		{"MultiD1Cycles cycles·n overflows", "cycles", func() error {
			_, err := MultiD1CyclesContext(ctx, 8, 2, 1, math.MaxInt/4, line, MultiOptions{})
			return err
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", c.label, r)
				}
			}()
			err := c.run()
			var pe *ParamError
			if !errors.As(err, &pe) {
				t.Errorf("%s: err = %v (%T), want *ParamError", c.label, err, err)
				return
			}
			if pe.Field != c.field {
				t.Errorf("%s: ParamError on %q, want %q (%v)", c.label, pe.Field, c.field, pe)
			}
		}()
	}
}
