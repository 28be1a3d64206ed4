package simulate

import (
	"context"
	"testing"

	"bsmp/internal/guest"
)

// The unified kernel cache keys on (d, s, m, calibration-program
// fingerprint). The d = 2/3 geometries calibrate on a fixed internal
// guest, so their kernels — and hence the model times — must be
// caller-independent; d = 1 calibrates on the caller's program and must
// stay program-dependent (TestDiamondKernelProgramDependence).

func TestSpanKernelFixedGuestD2(t *testing.T) {
	a := guest.AsNetwork{G: guest.MixCA{Seed: 1}, Side: 8}
	b := guest.AsNetwork{G: guest.MixCA{Seed: 77}, Side: 8}
	ka, err := multiGeoms[2].kernel(context.Background(), 4, 4, a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := multiGeoms[2].kernel(context.Background(), 4, 4, b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("d=2 kernel depends on the caller's guest: %v vs %v", ka, kb)
	}
	ra, err := MultiContext(context.Background(), 2, 64, 4, 4, 8, a, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MultiContext(context.Background(), 2, 64, 4, 4, 8, b, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Time != rb.Time {
		t.Errorf("d=2 model time depends on the caller's guest: %v vs %v", ra.Time, rb.Time)
	}
}

func TestSpanKernelFixedGuestD3(t *testing.T) {
	a := guest.AsNetwork{G: guest.MixCA{Seed: 1}, CubeSide: 4}
	b := guest.AsNetwork{G: guest.MixCA{Seed: 77}, CubeSide: 4}
	ka, err := multiGeoms[3].kernel(context.Background(), 2, 4, a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := multiGeoms[3].kernel(context.Background(), 2, 4, b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("d=3 kernel depends on the caller's guest: %v vs %v", ka, kb)
	}
	ra, err := MultiContext(context.Background(), 3, 64, 8, 4, 4, a, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MultiContext(context.Background(), 3, 64, 8, 4, 4, b, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Time != rb.Time {
		t.Errorf("d=3 model time depends on the caller's guest: %v vs %v", ra.Time, rb.Time)
	}
}

func TestKernelCacheKeySeparatesDimensions(t *testing.T) {
	// Same (s, m) measured through different geometries must not collide:
	// the d field and the calibration fingerprint both discriminate.
	k2, err := multiGeoms[2].kernel(context.Background(), 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := multiGeoms[3].kernel(context.Background(), 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k3 {
		t.Errorf("d=2 and d=3 kernels collide at %v for the same (s, m)", k2)
	}
}
