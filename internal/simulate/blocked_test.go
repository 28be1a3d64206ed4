package simulate

import (
	"context"
	"math"
	"testing"

	"bsmp/internal/guest"
)

func TestBlockedD1Functional(t *testing.T) {
	for _, tc := range []struct{ n, m, steps, leaf int }{
		{8, 1, 8, 0},
		{8, 2, 8, 0},
		{16, 4, 16, 0},
		{16, 4, 16, 8}, // non-default leaf width
		{12, 3, 10, 0},
		{16, 16, 12, 0}, // m >= n: single naive leaf... or wide leaves
		{32, 2, 24, 0},
	} {
		prog := netProg(0)
		res, err := BlockedD1Context(context.Background(), tc.n, tc.m, tc.steps, tc.leaf, prog)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := res.Verify(1, tc.n, tc.m, prog); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestBlockedD1MatchesNaiveFunctionally(t *testing.T) {
	prog := netProg(0)
	blk, err := BlockedD1Context(context.Background(), 16, 3, 12, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := NaiveContext(context.Background(), 1, 16, 1, 3, 12, prog)
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

func TestBlockedD1TimeGrowsWithM(t *testing.T) {
	// Theorem 3: slowdown Θ(n·min(n, m·Log(n/m))). The m·Log(n/m) locality
	// term is visible once the Θ(r)-per-diamond broadcast traffic stops
	// masking the Θ(r·m) image traffic, i.e. in the regime n >> m >= ~4
	// (for small m the measured curve is flat — the same plateau the
	// guarded Log produces in the paper's formula).
	prog := netProg(0)
	var times []float64
	ms := []int{4, 16, 64}
	for _, m := range ms {
		res, err := BlockedD1Context(context.Background(), 256, m, 64, 0, prog)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, float64(res.Time))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Errorf("time not increasing with m: %v", times)
		}
	}
	// Theory predicts m·Log(n/m) growth ≈ 5.3x from m=4 to m=64; the
	// measured growth must be clearly superconstant and subquadratic.
	growth := times[len(times)-1] / times[0]
	if growth < 1.5 || growth > 16 {
		t.Errorf("time growth over m 4->64 is %v, want within [1.5, 16] (~5x)", growth)
	}
}

func TestBlockedD1ShapeVersusNaive(t *testing.T) {
	// For small m the blocked scheme's time grows like n² m Log(n/m)
	// (exponent ~2 in n) while naive's grows like n³ (exponent ~3 over
	// the same T = n computations).
	prog := netProg(0)
	var logN, logB, logNv []float64
	for _, n := range []int{16, 32, 64} {
		blk, err := BlockedD1Context(context.Background(), n, 2, n, 0, prog)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := NaiveContext(context.Background(), 1, n, 1, 2, n, prog)
		if err != nil {
			t.Fatal(err)
		}
		logN = append(logN, math.Log2(float64(n)))
		logB = append(logB, math.Log2(float64(blk.Time)))
		logNv = append(logNv, math.Log2(float64(nv.Time)))
	}
	bSlope := fitSlope(logN, logB)
	nvSlope := fitSlope(logN, logNv)
	if nvSlope < 2.6 || nvSlope > 3.4 {
		t.Errorf("naive exponent %v, want ~3", nvSlope)
	}
	if bSlope >= nvSlope-0.4 {
		t.Errorf("blocked exponent %v not clearly below naive %v", bSlope, nvSlope)
	}
}

func TestBlockedD1LeafWidthAblation(t *testing.T) {
	// The paper's choice leafWidth = m should not be far worse than any
	// nearby leaf width (it's the optimized knob).
	prog := netProg(0)
	n, m := 32, 4
	def, err := BlockedD1Context(context.Background(), n, m, n, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []int{2, 16} {
		alt, err := BlockedD1Context(context.Background(), n, m, n, leaf, prog)
		if err != nil {
			t.Fatal(err)
		}
		if float64(def.Time) > 3*float64(alt.Time) {
			t.Errorf("leaf=m=%d time %v much worse than leaf=%d time %v",
				m, def.Time, leaf, alt.Time)
		}
	}
}

func TestBlockedD1Rule90MatchesDagForM1(t *testing.T) {
	// With m = 1 and an order-insensitive rule, the blocked scheme must
	// agree with the dag-level separator executor.
	r := guest.Rule90{Seed: 8}
	n := 16
	blk, err := BlockedD1Context(context.Background(), n, 1, n-1, 0, guest.AsNetwork{G: r})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := UniDCContext(context.Background(), 1, n, n, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blk.Outputs {
		if blk.Outputs[i] != dc.Outputs[i] {
			t.Fatalf("node %d: blocked %d vs separator %d", i, blk.Outputs[i], dc.Outputs[i])
		}
	}
}
