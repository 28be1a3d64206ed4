package simulate

// Randomized end-to-end properties: for arbitrary small geometries every
// simulation scheme must reproduce the reference execution bit-exactly.
// These are the strongest correctness guards in the suite — any
// scheduling, preboundary, staging, or relocation bug surfaces here.

import (
	"context"
	"testing"
	"testing/quick"

	"bsmp/internal/guest"
)

func TestPropertyUniDCMatchesReferenceD1(t *testing.T) {
	f := func(nRaw, tRaw, leafRaw, seed uint8) bool {
		n := int(nRaw%24) + 2
		steps := int(tRaw%24) + 2
		leaf := int(leafRaw%16) + 1
		prog := guest.MixCA{Seed: uint64(seed)}
		res, err := UniDCContext(context.Background(), 1, n, steps, leaf, prog)
		if err != nil {
			return false
		}
		return VerifyDag(res, 1, n, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUniDCMatchesReferenceD2(t *testing.T) {
	f := func(sideRaw, tRaw, seed uint8) bool {
		side := int(sideRaw%6) + 2
		steps := int(tRaw%8) + 2
		prog := guest.MixCA{Seed: uint64(seed)}
		res, err := UniDCContext(context.Background(), 2, side*side, steps, 8, prog)
		if err != nil {
			return false
		}
		return VerifyDag(res, 2, side*side, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUniDCMatchesReferenceD3(t *testing.T) {
	f := func(sideRaw, tRaw, seed uint8) bool {
		side := int(sideRaw%3) + 2
		steps := int(tRaw%5) + 2
		prog := guest.MixCA{Seed: uint64(seed)}
		res, err := UniDCContext(context.Background(), 3, side*side*side, steps, 8, prog)
		if err != nil {
			return false
		}
		return VerifyDag(res, 3, side*side*side, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBlockedD1MatchesReference(t *testing.T) {
	f := func(nRaw, mRaw, tRaw, leafRaw, seed uint8) bool {
		n := int(nRaw%20) + 2
		m := int(mRaw%8) + 1
		steps := int(tRaw%16) + 1
		leaf := int(leafRaw % 12) // 0 = paper's default
		prog := guest.AsNetwork{G: guest.MixCA{Seed: uint64(seed)}}
		res, err := BlockedContext(context.Background(), 1, n, m, steps, leaf, prog)
		if err != nil {
			return false
		}
		return res.Verify(1, n, m, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBlockedD1RestrictedMatchesReference(t *testing.T) {
	f := func(nRaw, mRaw, mpRaw, tRaw, seed uint8) bool {
		n := int(nRaw%16) + 2
		m := int(mRaw%8) + 1
		mp := int(mpRaw)%m + 1
		steps := int(tRaw%12) + 1
		prog := guest.RestrictMem{P: guest.MixCA{Seed: uint64(seed)}, Words: mp}
		res, err := BlockedContext(context.Background(), 1, n, m, steps, 0, prog)
		if err != nil {
			return false
		}
		return res.Verify(1, n, m, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNaiveMatchesReference(t *testing.T) {
	f := func(nRaw, pRaw, mRaw, tRaw, seed uint8) bool {
		// p must divide n: construct n as p * k.
		p := int(pRaw%4) + 1
		k := int(nRaw%6) + 1
		n := p * k
		m := int(mRaw%4) + 1
		steps := int(tRaw%10) + 1
		prog := guest.AsNetwork{G: guest.MixCA{Seed: uint64(seed)}}
		res, err := NaiveContext(context.Background(), 1, n, p, m, steps, prog)
		if err != nil {
			return false
		}
		return res.Verify(1, n, m, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMultiD1MatchesReference(t *testing.T) {
	f := func(pExp, kRaw, mRaw, tRaw, seed uint8) bool {
		p := 1 << (pExp%3 + 1)       // 2, 4, 8
		n := p * (1 << (kRaw%3 + 1)) // p·{2,4,8}
		m := 1 << (mRaw % 4)         // 1..8
		steps := int(tRaw%3)*8 + 8   // 8..24
		prog := guest.AsNetwork{G: guest.MixCA{Seed: uint64(seed)}}
		res, err := MultiContext(context.Background(), 1, n, p, m, steps, prog, MultiOptions{})
		if err != nil {
			return false
		}
		return res.Verify(1, n, m, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual time is deterministic — identical runs produce
// identical measured times (no wall-clock or map-order leakage).
func TestPropertyTimeDeterminism(t *testing.T) {
	f := func(nRaw, tRaw, seed uint8) bool {
		n := int(nRaw%16) + 2
		steps := int(tRaw%12) + 2
		prog := guest.MixCA{Seed: uint64(seed)}
		a, err := UniDCContext(context.Background(), 1, n, steps, 8, prog)
		if err != nil {
			return false
		}
		b, err := UniDCContext(context.Background(), 1, n, steps, 8, prog)
		if err != nil {
			return false
		}
		return a.Time == b.Time && a.Space == b.Space
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
