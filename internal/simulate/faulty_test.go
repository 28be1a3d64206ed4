package simulate

import (
	"context"
	"errors"
	"math"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/guest"
)

// runFaulty runs the multi-faulty scheme on the golden d = 1 tuple with
// the given density and seed.
func runFaulty(t *testing.T, density float64, seed uint64) MultiResult {
	t.Helper()
	mr, err := RunSchemeContext(context.Background(), "multi-faulty", 1, 64, 4, 16, 16,
		guest.AsNetwork{G: guest.MixCA{Seed: 9}},
		SchemeConfig{Multi: MultiOptions{Faults: density, FaultSeed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestMultiFaultyGoldenAtZero is the acceptance pin: a zero-density
// fault mask kills nothing, every stretch factor is exactly 1.0 and
// pEff = p, so the multi-faulty scheme reproduces the lockstep multi
// golden virtual times BIT-identically for every dimension.
func TestMultiFaultyGoldenAtZero(t *testing.T) {
	mr := runFaulty(t, 0, 0)
	if mr.Time != 79686.0625 {
		t.Errorf("d=1 Time = %v, golden 79686.0625", mr.Time)
	}
	if mr.PrepTime != 45232 {
		t.Errorf("d=1 PrepTime = %v, golden 45232", mr.PrepTime)
	}
	if mr.Faults == nil {
		t.Fatal("d=1: no fault report attached")
	}
	if r := mr.Faults; r.DeadProcs != 0 || r.DeadCells != 0 || r.LiveProcs != 4 ||
		r.EffectiveP != 4 || r.DistStretch != 1 || r.MemStretch != 1 {
		t.Errorf("d=1 zero-density report = %+v, want all-alive identity", r)
	}

	m2, err := RunSchemeContext(context.Background(), "multi-faulty", 2, 256, 4, 8, 8,
		guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16},
		SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Time != 121540.75244594147 {
		t.Errorf("d=2 Time = %v, golden 121540.75244594147", m2.Time)
	}

	m3, err := RunSchemeContext(context.Background(), "multi-faulty", 3, 512, 8, 4, 8,
		guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8},
		SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Time != 151296.39378136813 {
		t.Errorf("d=3 Time = %v, golden 151296.39378136813", m3.Time)
	}
}

// TestMultiFaultyMatchesLockstepLive compares a zero-density run against
// a live lockstep multi run in full: times, ledger totals and counts,
// per-phase breakdown, and outputs.
func TestMultiFaultyMatchesLockstepLive(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 4}}
	lock, err := RunSchemeContext(context.Background(), "multi", 1, 64, 4, 4, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := RunSchemeContext(context.Background(), "multi-faulty", 1, 64, 4, 4, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if fa.Time != lock.Time || fa.PrepTime != lock.PrepTime {
		t.Fatalf("times (%v, %v) != lockstep (%v, %v)", fa.Time, fa.PrepTime, lock.Time, lock.PrepTime)
	}
	for _, c := range cost.Categories() {
		if fa.Ledger.Total(c) != lock.Ledger.Total(c) {
			t.Errorf("ledger %s: %v != %v", c, fa.Ledger.Total(c), lock.Ledger.Total(c))
		}
		if fa.Ledger.Count(c) != lock.Ledger.Count(c) {
			t.Errorf("ledger count %s: %d != %d", c, fa.Ledger.Count(c), lock.Ledger.Count(c))
		}
	}
	if len(fa.Phases) != len(lock.Phases) {
		t.Fatalf("phase count %d != %d", len(fa.Phases), len(lock.Phases))
	}
	for i := range fa.Phases {
		if fa.Phases[i].Name != lock.Phases[i].Name || fa.Phases[i].Time != lock.Phases[i].Time {
			t.Errorf("phase[%d]: (%s, %v) != (%s, %v)", i,
				fa.Phases[i].Name, fa.Phases[i].Time, lock.Phases[i].Name, lock.Phases[i].Time)
		}
	}
	for i := range fa.Outputs {
		if fa.Outputs[i] != lock.Outputs[i] {
			t.Fatalf("output %d differs", i)
		}
	}
}

// runFaultyP runs multi-faulty on an 8-processor d = 1 host — wide
// enough that the sweep densities below cannot plausibly kill every
// processor (the mask errors when none survives).
func runFaultyP(t *testing.T, density float64, seed uint64) MultiResult {
	t.Helper()
	mr, err := RunSchemeContext(context.Background(), "multi-faulty", 1, 64, 8, 16, 16,
		guest.AsNetwork{G: guest.MixCA{Seed: 9}},
		SchemeConfig{Multi: MultiOptions{Faults: density, FaultSeed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestMultiFaultyMonotone is the graceful-degradation property over a
// seeded density sweep: threshold sampling nests the dead sets, so with
// the seed fixed, Time is monotone non-decreasing in the density — more
// faults can only slow the machine (E-FAULT measures the same sweep).
func TestMultiFaultyMonotone(t *testing.T) {
	densities := []float64{0, 0.05, 0.1, 0.2, 0.4}
	for _, seed := range []uint64{0, 7, 123456789} {
		prev := cost.Time(0)
		for _, f := range densities {
			mr := runFaultyP(t, f, seed)
			if mr.Time < prev {
				t.Fatalf("seed %d: Time decreased from %v to %v at faults=%v", seed, prev, mr.Time, f)
			}
			prev = mr.Time
		}
		// The sweep actually moves: the densest mask is strictly slower.
		if prev <= runFaultyP(t, 0, seed).Time {
			t.Fatalf("seed %d: faults=0.4 no slower than fault-free", seed)
		}
	}
}

// TestMultiFaultyDeterministic checks seeded reproducibility: the same
// (density, seed) twice gives identical times and fault reports; a
// different seed samples a different mask.
func TestMultiFaultyDeterministic(t *testing.T) {
	a := runFaulty(t, 0.2, 42)
	b := runFaulty(t, 0.2, 42)
	if a.Time != b.Time || a.PrepTime != b.PrepTime {
		t.Fatalf("same seed: (%v, %v) != (%v, %v)", a.Time, a.PrepTime, b.Time, b.PrepTime)
	}
	if *a.Faults != *b.Faults {
		t.Fatalf("same seed: reports differ: %+v vs %+v", a.Faults, b.Faults)
	}
	other := runFaulty(t, 0.2, 43)
	if other.Time == a.Time {
		t.Fatalf("different seed produced identical Time %v", a.Time)
	}
}

// TestMultiFaultyDegradesP checks the sub-configuration planning: a
// density that kills processors shrinks the effective machine to the
// largest d-shaped divisor of n, visible in the report.
func TestMultiFaultyDegradesP(t *testing.T) {
	mr := runFaultyP(t, 0.4, 7)
	r := mr.Faults
	if r == nil {
		t.Fatal("no fault report")
	}
	if r.DeadProcs == 0 && r.DeadCells == 0 {
		t.Fatalf("density 0.4 killed nothing: %+v", r)
	}
	if r.EffectiveP > r.LiveProcs || r.EffectiveP < 1 || 64%r.EffectiveP != 0 {
		t.Fatalf("EffectiveP %d not a divisor of n within the live count %d", r.EffectiveP, r.LiveProcs)
	}
	if r.DistStretch < 1 || r.MemStretch < 1 {
		t.Fatalf("stretch factors below 1: %+v", r)
	}
}

// TestLargestShapedDivisor pins the sub-configuration shape search.
func TestLargestShapedDivisor(t *testing.T) {
	for _, tc := range []struct{ d, n, limit, want int }{
		{1, 64, 64, 64},
		{1, 64, 48, 32},
		{1, 64, 1, 1},
		{2, 256, 256, 256},
		{2, 256, 10, 4}, // square divisors of 256: 1, 4, 16, 64, 256
		{2, 256, 3, 1},
		{3, 512, 512, 512},
		{3, 512, 63, 8}, // cube divisors of 512: 1, 8, 64, 512
		{3, 512, 7, 1},
		{1, 64, 100, 64}, // limit above n clips to n
	} {
		if got := largestShapedDivisor(tc.d, tc.n, tc.limit); got != tc.want {
			t.Errorf("largestShapedDivisor(%d, %d, %d) = %d, want %d", tc.d, tc.n, tc.limit, got, tc.want)
		}
	}
}

// TestFaultsValidation checks the fault parameter boundary: densities
// outside [0, 1) are rejected with a typed ParamError naming the field,
// the fault-free schemes refuse a nonzero density outright, and the
// d >= 2 fault mask requires a d-shaped p (the mask samples over the
// actual host mesh).
func TestFaultsValidation(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	for _, f := range []float64{-0.1, 1, 1.5, math.NaN()} {
		cfg := SchemeConfig{Multi: MultiOptions{Faults: f}}
		err := ValidateParams("multi-faulty", 1, 64, 4, 4, 16, cfg)
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != "faults" {
			t.Fatalf("ValidateParams(faults=%v) = %v, want ParamError on faults", f, err)
		}
		if _, err := RunSchemeContext(context.Background(), "multi-faulty", 1, 64, 4, 4, 16, prog, cfg); !errors.As(err, &pe) {
			t.Fatalf("RunSchemeContext(faults=%v) = %v, want ParamError", f, err)
		}
	}
	// Valid densities pass; the zero config is the fault-free identity.
	if err := ValidateParams("multi-faulty", 1, 64, 4, 4, 16, SchemeConfig{Multi: MultiOptions{Faults: 0.25}}); err != nil {
		t.Fatalf("faults=0.25 rejected: %v", err)
	}
	if err := ValidateParams("multi-faulty", 1, 64, 4, 4, 16); err != nil {
		t.Fatalf("default cfg rejected: %v", err)
	}
	// Fault-free schemes take no density.
	var pe *ParamError
	for _, name := range []string{"multi", "multi-theta"} {
		err := ValidateParams(name, 1, 64, 4, 4, 16, SchemeConfig{Multi: MultiOptions{Faults: 0.1}})
		if !errors.As(err, &pe) || pe.Field != "faults" {
			t.Fatalf("%s with faults: err = %v, want ParamError on faults", name, err)
		}
	}
	// multi-faulty is lockstep-only, like multi.
	err := ValidateParams("multi-faulty", 1, 64, 4, 4, 16, SchemeConfig{Multi: MultiOptions{Theta: 2}})
	if !errors.As(err, &pe) || pe.Field != "theta" {
		t.Fatalf("multi-faulty with theta: err = %v, want ParamError on theta", err)
	}
	// d = 2 requires a square p: the mask needs the real host mesh.
	err = ValidateParams("multi-faulty", 2, 256, 8, 4, 8)
	if !errors.As(err, &pe) || pe.Field != "p" {
		t.Fatalf("multi-faulty d=2 p=8: err = %v, want ParamError on p", err)
	}
}

// TestMultiFaultyNonzeroRuns exercises the span-model dimensions under
// a real fault mask: valid runs, strictly slower than fault-free, with
// unchanged outputs (faults move charges, never values).
func TestMultiFaultyNonzeroRuns(t *testing.T) {
	for _, tc := range []struct {
		d, n, p, m, steps int
		prog              guest.AsNetwork
	}{
		{2, 256, 4, 8, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16}},
		{3, 512, 8, 4, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8}},
	} {
		run := func(f float64) MultiResult {
			mr, err := RunSchemeContext(context.Background(), "multi-faulty", tc.d, tc.n, tc.p, tc.m, tc.steps, tc.prog,
				SchemeConfig{Multi: MultiOptions{Faults: f, FaultSeed: 11}})
			if err != nil {
				t.Fatalf("d=%d faults=%v: %v", tc.d, f, err)
			}
			return mr
		}
		clean, faulty := run(0), run(0.3)
		if faulty.Time <= clean.Time {
			t.Fatalf("d=%d: faults=0.3 Time %v not above fault-free %v", tc.d, faulty.Time, clean.Time)
		}
		for i := range clean.Outputs {
			if clean.Outputs[i] != faulty.Outputs[i] {
				t.Fatalf("d=%d: output %d differs under faults", tc.d, i)
			}
		}
	}
}
