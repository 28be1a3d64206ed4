package simulate

import (
	"context"
	"testing"
	"testing/quick"

	"bsmp/internal/guest"
)

func TestBlockedD2Functional(t *testing.T) {
	for _, tc := range []struct{ side, m, steps, leaf int }{
		{3, 1, 4, 0},
		{4, 2, 6, 0},
		{4, 2, 6, 4}, // non-default leaf span
		{5, 4, 8, 0},
		{6, 3, 5, 0},
	} {
		n := tc.side * tc.side
		prog := netProg(tc.side)
		res, err := BlockedContext(context.Background(), 2, n, tc.m, tc.steps, tc.leaf, prog)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := res.Verify(2, n, tc.m, prog); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestBlockedD2MatchesNaive(t *testing.T) {
	side, m, steps := 4, 3, 6
	n := side * side
	prog := netProg(side)
	blk, err := BlockedContext(context.Background(), 2, n, m, steps, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := NaiveContext(context.Background(), 2, n, 1, m, steps, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blk.Outputs {
		if blk.Outputs[i] != nv.Outputs[i] {
			t.Fatalf("output %d: blocked %d vs naive %d", i, blk.Outputs[i], nv.Outputs[i])
		}
	}
	for v := range blk.Memories {
		for a := range blk.Memories[v] {
			if blk.Memories[v][a] != nv.Memories[v][a] {
				t.Fatalf("memory %d/%d mismatch", v, a)
			}
		}
	}
}

func TestBlockedD2TimeGrowsWithM(t *testing.T) {
	// At a FIXED leaf span the d = 2 image traffic grows with m (the
	// locality term): per-word move cost is span-determined while the
	// word count scales with m.
	side, steps, leaf := 16, 8, 4
	n := side * side
	prog := netProg(side)
	var times []float64
	for _, m := range []int{4, 16, 64} {
		res, err := BlockedContext(context.Background(), 2, n, m, steps, leaf, prog)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, float64(res.Time))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Errorf("time not increasing with m at fixed leaf: %v", times)
		}
	}
}

func TestBlockedD2LargeMCollapsesToNaive(t *testing.T) {
	// With the default leaf span m, a large m swallows the whole domain
	// into one naive leaf — the paper's range 3/4 mechanism ("only the
	// naive simulation is profitable") — and that must be CHEAPER at
	// this scale than forcing deep recursion.
	side, steps, m := 16, 8, 64
	n := side * side
	prog := netProg(side)
	def, err := BlockedContext(context.Background(), 2, n, m, steps, 0, prog) // leaf = m: one naive leaf
	if err != nil {
		t.Fatal(err)
	}
	forced, err := BlockedContext(context.Background(), 2, n, m, steps, 4, prog) // deep recursion
	if err != nil {
		t.Fatal(err)
	}
	if def.Time >= forced.Time {
		t.Errorf("default (naive) %v not cheaper than forced recursion %v at large m",
			def.Time, forced.Time)
	}
}

func TestBlockedD2RestrictedMemory(t *testing.T) {
	side, m, steps := 4, 6, 5
	n := side * side
	prog := guest.RestrictMem{P: guest.MixCA{Seed: 21}, Words: 2, Side: side}
	res, err := BlockedContext(context.Background(), 2, n, m, steps, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(2, n, m, prog); err != nil {
		t.Fatal(err)
	}
}

// Property: BlockedD2 reproduces the pure reference for random geometry.
func TestPropertyBlockedD2MatchesReference(t *testing.T) {
	f := func(sideRaw, mRaw, tRaw, seed uint8) bool {
		side := int(sideRaw%4) + 2
		m := int(mRaw%4) + 1
		steps := int(tRaw%6) + 1
		prog := guest.AsNetwork{G: guest.MixCA{Seed: uint64(seed)}, Side: side}
		res, err := BlockedContext(context.Background(), 2, side*side, m, steps, 0, prog)
		if err != nil {
			return false
		}
		return res.Verify(2, side*side, m, prog) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
