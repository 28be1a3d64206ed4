package simulate

import (
	"context"
	"testing"
	"testing/quick"

	"bsmp/internal/guest"
)

func cubeProg(side int, seed uint64) guest.AsNetwork {
	return guest.AsNetwork{G: guest.MixCA{Seed: seed}, CubeSide: side}
}

func TestBlockedD3Functional(t *testing.T) {
	for _, tc := range []struct{ side, m, steps, leaf int }{
		{2, 1, 4, 0},
		{3, 2, 4, 0},
		{3, 2, 4, 4},
		{4, 3, 5, 0},
	} {
		n := tc.side * tc.side * tc.side
		prog := cubeProg(tc.side, 9)
		res, err := BlockedD3Context(context.Background(), n, tc.m, tc.steps, tc.leaf, prog)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := res.Verify(3, n, tc.m, prog); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestBlockedD3ImageTrafficGrowsWithM(t *testing.T) {
	side, steps, leaf := 6, 4, 2
	n := side * side * side
	prog := cubeProg(side, 9)
	var prev float64
	for i, m := range []int{2, 8, 32} {
		res, err := BlockedD3Context(context.Background(), n, m, steps, leaf, prog)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && float64(res.Time) <= prev {
			t.Errorf("m=%d: time %v not above smaller-m run %v", m, res.Time, prev)
		}
		prev = float64(res.Time)
	}
}

// Property: BlockedD3 reproduces the pure reference for random geometry.
func TestPropertyBlockedD3MatchesReference(t *testing.T) {
	f := func(sideRaw, mRaw, tRaw, seed uint8) bool {
		side := int(sideRaw%3) + 2
		m := int(mRaw%3) + 1
		steps := int(tRaw%4) + 1
		prog := cubeProg(side, uint64(seed))
		res, err := BlockedD3Context(context.Background(), side*side*side, m, steps, 0, prog)
		if err != nil {
			return false
		}
		return res.Verify(3, side*side*side, m, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
