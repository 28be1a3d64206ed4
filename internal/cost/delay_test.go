package cost

import (
	"math"
	"testing"
)

func TestNewThetaModelRejects(t *testing.T) {
	for _, theta := range []float64{0, 0.5, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewThetaModel(theta, 1); err == nil {
			t.Errorf("NewThetaModel(%v) accepted", theta)
		}
	}
	if _, err := NewThetaModel(1, 0); err != nil {
		t.Fatalf("NewThetaModel(1) rejected: %v", err)
	}
}

// TestThetaOneIsExactlyIdentity pins the bit-identity contract: at
// Θ = 1 every factor is exactly 1 and ChargeDelayed charges exactly dt.
func TestThetaOneIsExactlyIdentity(t *testing.T) {
	tm, _ := NewThetaModel(1, 12345)
	for proc := 0; proc < 4; proc++ {
		for seq := uint64(0); seq < 100; seq++ {
			if f := tm.Factor(proc, seq); f != 1 {
				t.Fatalf("Factor(%d, %d) = %v at theta=1", proc, seq, f)
			}
		}
	}
	a, b := NewBank(2), NewBank(2)
	b.SetDelayModel(tm)
	for i := 0; i < 50; i++ {
		a.Proc(0).Charge(Transfer, 0.1*float64(i))
		b.ChargeDelayed(0, Transfer, 0.1*float64(i))
	}
	if a.Proc(0).Now() != b.Proc(0).Now() {
		t.Fatalf("theta=1 clock %v != lockstep clock %v", b.Proc(0).Now(), a.Proc(0).Now())
	}
}

// TestFactorBounds checks factors stay in [1, Θ) and are deterministic
// in (seed, proc, seq).
func TestFactorBounds(t *testing.T) {
	tm, _ := NewThetaModel(2.5, 7)
	tm2, _ := NewThetaModel(2.5, 7)
	for proc := 0; proc < 8; proc++ {
		for seq := uint64(0); seq < 256; seq++ {
			f := tm.Factor(proc, seq)
			if f < 1 || f >= 2.5 {
				t.Fatalf("Factor(%d, %d) = %v out of [1, 2.5)", proc, seq, f)
			}
			if f != tm2.Factor(proc, seq) {
				t.Fatalf("Factor(%d, %d) not deterministic", proc, seq)
			}
		}
	}
}

// TestFactorMonotoneInTheta checks the graceful-degradation invariant:
// with seed, proc, and seq fixed, the factor is non-decreasing in Θ.
func TestFactorMonotoneInTheta(t *testing.T) {
	thetas := []float64{1, 1.25, 1.5, 2, 4, 8, 64}
	for proc := 0; proc < 4; proc++ {
		for seq := uint64(0); seq < 64; seq++ {
			prev := 0.0
			for _, th := range thetas {
				tm, _ := NewThetaModel(th, 99)
				f := tm.Factor(proc, seq)
				if f < prev {
					t.Fatalf("Factor(%d, %d) decreased from %v to %v at theta=%v", proc, seq, prev, f, th)
				}
				prev = f
			}
		}
	}
}

// TestChargeDelayedStretch checks that Θ > 1 stretches charges within
// bounds and advances the per-processor draw sequence independently.
func TestChargeDelayedStretch(t *testing.T) {
	tm, _ := NewThetaModel(3, 11)
	b := NewBank(2)
	b.SetDelayModel(tm)
	var total0 Time
	for i := 0; i < 100; i++ {
		got := b.ChargeDelayed(0, Transfer, 2)
		if got < 2 || got >= 6 {
			t.Fatalf("charge %d stretched to %v, want [2, 6)", i, got)
		}
		total0 += got
	}
	if b.Proc(0).Now() != total0 {
		t.Fatalf("clock %v != summed charges %v", b.Proc(0).Now(), total0)
	}
	if b.Proc(1).Now() != 0 {
		t.Fatalf("proc 1 clock moved: %v", b.Proc(1).Now())
	}
	// Replays identically after Reset (draw counters rewind).
	first := b.Proc(0).Now()
	b.Reset()
	for i := 0; i < 100; i++ {
		b.ChargeDelayed(0, Transfer, 2)
	}
	if b.Proc(0).Now() != first {
		t.Fatalf("replay after Reset: %v != %v", b.Proc(0).Now(), first)
	}
}
