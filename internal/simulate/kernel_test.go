package simulate

import (
	"context"
	"testing"

	"bsmp/internal/guest"
)

// TestDiamondKernelProgramDependence pins the reason kernelCache is keyed
// by (s, m, program fingerprint) rather than (s, m): the measured diamond
// kernel depends on the guest program. A MemUser guest with m' < m
// relocates smaller images and touches cheaper cells, so its kernel must
// be strictly cheaper — and a second lookup with the other program must
// not be served from the first program's cache entry.
func TestDiamondKernelProgramDependence(t *testing.T) {
	s, m := 16, 32
	base := guest.MixCA{Seed: 13}
	narrow := guest.RestrictMem{P: base, Words: 2}
	wide := guest.RestrictMem{P: base, Words: 32}

	kNarrow, err := multiGeoms[1].kernel(context.Background(), s, m, narrow)
	if err != nil {
		t.Fatal(err)
	}
	kWide, err := multiGeoms[1].kernel(context.Background(), s, m, wide)
	if err != nil {
		t.Fatal(err)
	}
	if kNarrow >= kWide {
		t.Fatalf("kernel(m'=2) = %v not below kernel(m'=32) = %v: program not reflected", kNarrow, kWide)
	}
	// Re-query both orders: cached values must stay program-correct.
	kNarrow2, err := multiGeoms[1].kernel(context.Background(), s, m, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if kNarrow2 != kNarrow {
		t.Fatalf("cache returned %v for narrow program, measured %v", kNarrow2, kNarrow)
	}
	if progFingerprint(narrow) == progFingerprint(wide) {
		t.Fatal("distinct programs share a fingerprint")
	}
	// Equal field values under distinct guest types are distinct programs.
	if progFingerprint(guest.AsNetwork{G: guest.MixCA{Seed: 13}}) == progFingerprint(guest.AsNetwork{G: guest.Rule90{Seed: 13}}) {
		t.Fatal("MixCA and Rule90 guests with one seed share a fingerprint")
	}
}
