package simulate

import (
	"context"
	"errors"
	"math"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/guest"
)

// runTheta runs the multi-theta scheme on the golden d = 1 tuple with
// the given Θ and seed.
func runTheta(t *testing.T, theta float64, seed uint64) MultiResult {
	t.Helper()
	mr, err := RunSchemeContext(context.Background(), "multi-theta", 1, 64, 4, 16, 16,
		guest.AsNetwork{G: guest.MixCA{Seed: 9}},
		SchemeConfig{Multi: MultiOptions{Theta: theta, ThetaSeed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestMultiThetaGoldenAtOne is the acceptance pin: the event-driven
// engine at Θ = 1 reproduces the lockstep golden virtual times
// BIT-identically, for every dimension — same Time, same PrepTime, same
// ledger, same phase breakdown. The event queue and the barrier are
// then two executions of the same charge sequence.
func TestMultiThetaGoldenAtOne(t *testing.T) {
	mr := runTheta(t, 1, 0)
	if mr.Time != 79686.0625 {
		t.Errorf("d=1 Time = %v, golden 79686.0625", mr.Time)
	}
	if mr.PrepTime != 45232 {
		t.Errorf("d=1 PrepTime = %v, golden 45232", mr.PrepTime)
	}

	m2, err := RunSchemeContext(context.Background(), "multi-theta", 2, 256, 4, 8, 8,
		guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16},
		SchemeConfig{Multi: MultiOptions{Theta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Time != 121540.75244594147 {
		t.Errorf("d=2 Time = %v, golden 121540.75244594147", m2.Time)
	}

	m3, err := RunSchemeContext(context.Background(), "multi-theta", 3, 512, 8, 4, 8,
		guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8},
		SchemeConfig{Multi: MultiOptions{Theta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Time != 151296.39378136813 {
		t.Errorf("d=3 Time = %v, golden 151296.39378136813", m3.Time)
	}
}

// TestMultiThetaMatchesLockstepLive compares the Θ = 1 event engine
// against a live lockstep run in full: times, ledger totals and counts,
// and the per-phase breakdown, entry by entry.
func TestMultiThetaMatchesLockstepLive(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 4}}
	lock, err := RunSchemeContext(context.Background(), "multi", 1, 64, 4, 4, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := RunSchemeContext(context.Background(), "multi-theta", 1, 64, 4, 4, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Time != lock.Time || ev.PrepTime != lock.PrepTime {
		t.Fatalf("times (%v, %v) != lockstep (%v, %v)", ev.Time, ev.PrepTime, lock.Time, lock.PrepTime)
	}
	for _, c := range cost.Categories() {
		if ev.Ledger.Total(c) != lock.Ledger.Total(c) {
			t.Errorf("ledger %s: %v != %v", c, ev.Ledger.Total(c), lock.Ledger.Total(c))
		}
		if ev.Ledger.Count(c) != lock.Ledger.Count(c) {
			t.Errorf("ledger count %s: %d != %d", c, ev.Ledger.Count(c), lock.Ledger.Count(c))
		}
	}
	if len(ev.Phases) != len(lock.Phases) {
		t.Fatalf("phase count %d != %d", len(ev.Phases), len(lock.Phases))
	}
	for i := range ev.Phases {
		if ev.Phases[i].Name != lock.Phases[i].Name || ev.Phases[i].Time != lock.Phases[i].Time {
			t.Errorf("phase[%d]: (%s, %v) != (%s, %v)", i,
				ev.Phases[i].Name, ev.Phases[i].Time, lock.Phases[i].Name, lock.Phases[i].Time)
		}
	}
	for i := range ev.Outputs {
		if ev.Outputs[i] != lock.Outputs[i] {
			t.Fatalf("output %d differs", i)
		}
	}
}

// TestMultiThetaMonotone is the graceful-degradation property over a
// seeded sweep: with the seed fixed, Time and PrepTime are monotone
// non-decreasing in Θ — a larger delay bound can only slow the machine.
func TestMultiThetaMonotone(t *testing.T) {
	thetas := []float64{1, 1.25, 1.5, 2, 4, 8}
	for _, seed := range []uint64{0, 7, 123456789} {
		prevTime, prevPrep := cost.Time(0), cost.Time(0)
		for _, theta := range thetas {
			mr := runTheta(t, theta, seed)
			if mr.Time < prevTime {
				t.Fatalf("seed %d: Time decreased from %v to %v at theta=%v", seed, prevTime, mr.Time, theta)
			}
			if mr.PrepTime < prevPrep {
				t.Fatalf("seed %d: PrepTime decreased from %v to %v at theta=%v", seed, prevPrep, mr.PrepTime, theta)
			}
			prevTime, prevPrep = mr.Time, mr.PrepTime
		}
		// The sweep actually moves: Θ = 8 is strictly slower than Θ = 1.
		if prevTime <= runTheta(t, 1, seed).Time {
			t.Fatalf("seed %d: theta=8 no slower than theta=1", seed)
		}
	}
}

// TestMultiThetaDeterministic checks seeded reproducibility: same
// (Θ, seed) twice gives identical times and ledgers; a different seed
// draws different delays.
func TestMultiThetaDeterministic(t *testing.T) {
	a := runTheta(t, 2.5, 42)
	b := runTheta(t, 2.5, 42)
	if a.Time != b.Time || a.PrepTime != b.PrepTime {
		t.Fatalf("same seed: (%v, %v) != (%v, %v)", a.Time, a.PrepTime, b.Time, b.PrepTime)
	}
	for _, c := range cost.Categories() {
		if a.Ledger.Total(c) != b.Ledger.Total(c) {
			t.Fatalf("same seed: ledger %s differs", c)
		}
	}
	other := runTheta(t, 2.5, 43)
	if other.Time == a.Time {
		t.Fatalf("different seed produced identical Time %v", a.Time)
	}
}

// TestMultiThetaStretchShowsSync checks the Θ > 1 mechanics: delayed
// charges desynchronize the processors, so joins charge real Sync time
// that the lockstep run (uniform charges, no stalls) never sees, and
// the run is slower than lockstep.
func TestMultiThetaStretchShowsSync(t *testing.T) {
	lock := runTheta(t, 1, 7)
	slow := runTheta(t, 3, 7)
	if slow.Time <= lock.Time {
		t.Fatalf("theta=3 Time %v not above lockstep %v", slow.Time, lock.Time)
	}
	if lock.Ledger.Total(cost.Sync) != 0 {
		t.Fatalf("lockstep run charged Sync %v, want 0", lock.Ledger.Total(cost.Sync))
	}
	if slow.Ledger.Total(cost.Sync) <= 0 {
		t.Fatal("theta=3 run charged no Sync despite desynchronized joins")
	}
	// Outputs are unaffected: delays move clocks, never values.
	for i := range lock.Outputs {
		if lock.Outputs[i] != slow.Outputs[i] {
			t.Fatalf("output %d differs under theta", i)
		}
	}
}

// TestMultiThetaD2D3Run exercises the span-model dimensions under
// Θ > 1: valid runs, slower than lockstep, monotone between two Θs.
func TestMultiThetaD2D3Run(t *testing.T) {
	for _, tc := range []struct {
		d, n, p, m, steps int
		prog              guest.AsNetwork
	}{
		{2, 256, 4, 8, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16}},
		{3, 512, 8, 4, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8}},
	} {
		run := func(theta float64) MultiResult {
			mr, err := RunSchemeContext(context.Background(), "multi-theta", tc.d, tc.n, tc.p, tc.m, tc.steps, tc.prog,
				SchemeConfig{Multi: MultiOptions{Theta: theta, ThetaSeed: 11}})
			if err != nil {
				t.Fatalf("d=%d theta=%v: %v", tc.d, theta, err)
			}
			return mr
		}
		t1, t2, t4 := run(1), run(2), run(4)
		if !(t1.Time <= t2.Time && t2.Time <= t4.Time) {
			t.Fatalf("d=%d: times not monotone: %v, %v, %v", tc.d, t1.Time, t2.Time, t4.Time)
		}
		if t4.Time <= t1.Time {
			t.Fatalf("d=%d: theta=4 no slower than lockstep", tc.d)
		}
	}
}

// TestThetaValidation checks the Θ parameter boundary: sub-1, NaN and
// Inf ratios are rejected with a typed ParamError naming the field, on
// both the registry path and the direct constructors, and the lockstep
// multi scheme refuses a delay ratio outright.
func TestThetaValidation(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	for _, theta := range []float64{0.5, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := SchemeConfig{Multi: MultiOptions{Theta: theta}}
		err := ValidateParams("multi-theta", 1, 64, 4, 4, 16, cfg)
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != "theta" {
			t.Fatalf("ValidateParams(theta=%v) = %v, want ParamError on theta", theta, err)
		}
		if _, err := RunSchemeContext(context.Background(), "multi-theta", 1, 64, 4, 4, 16, prog, cfg); !errors.As(err, &pe) {
			t.Fatalf("RunSchemeContext(theta=%v) = %v, want ParamError", theta, err)
		}
		if _, err := MultiD1Context(context.Background(), 64, 4, 4, 16, prog, MultiOptions{Theta: theta}); !errors.As(err, &pe) {
			t.Fatalf("MultiD1Context(theta=%v) = %v, want ParamError", theta, err)
		}
		if _, err := MultiD2Context(context.Background(), 256, 4, 8, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16}, MultiOptions{Theta: theta}); !errors.As(err, &pe) {
			t.Fatalf("MultiD2Context(theta=%v) = %v, want ParamError", theta, err)
		}
	}
	// Valid ratios pass.
	if err := ValidateParams("multi-theta", 1, 64, 4, 4, 16, SchemeConfig{Multi: MultiOptions{Theta: 1.5}}); err != nil {
		t.Fatalf("theta=1.5 rejected: %v", err)
	}
	if err := ValidateParams("multi-theta", 1, 64, 4, 4, 16); err != nil {
		t.Fatalf("default cfg rejected: %v", err)
	}
	// The lockstep scheme takes no delay ratio.
	var pe *ParamError
	err := ValidateParams("multi", 1, 64, 4, 4, 16, SchemeConfig{Multi: MultiOptions{Theta: 2}})
	if !errors.As(err, &pe) || pe.Field != "theta" {
		t.Fatalf("multi with theta: err = %v, want ParamError on theta", err)
	}
}
