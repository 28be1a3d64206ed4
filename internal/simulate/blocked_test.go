package simulate

import (
	"context"
	"math"
	"testing"

	"bsmp/internal/guest"
	"bsmp/internal/lattice"
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
		res, err := BlockedContext(context.Background(), 1, tc.n, tc.m, tc.steps, tc.leaf, prog)
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
	blk, err := BlockedContext(context.Background(), 1, 16, 3, 12, 0, prog)
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
		res, err := BlockedContext(context.Background(), 1, 256, m, 64, 0, prog)
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
		blk, err := BlockedContext(context.Background(), 1, n, 2, n, 0, prog)
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
	def, err := BlockedContext(context.Background(), 1, n, m, n, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []int{2, 16} {
		alt, err := BlockedContext(context.Background(), 1, n, m, n, leaf, prog)
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
	blk, err := BlockedContext(context.Background(), 1, n, 1, n-1, 0, guest.AsNetwork{G: r})
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

// TestBlockedOperandsFollowNeighbors pins the blocked executor's operand
// stencil to the guest stepper's operand order: for every node of small
// meshes at d = 1, 2 and 3, the stencil maps to the node itself followed
// by topology.Neighbors, which network.Guest steps with.
func TestBlockedOperandsFollowNeighbors(t *testing.T) {
	for _, sh := range []struct{ d, n int }{{1, 1}, {1, 7}, {2, 1}, {2, 16}, {3, 1}, {3, 27}} {
		g := newBlockedGeom(sh.d, sh.n)
		var pts []lattice.Point
		var nb []int
		for v := 0; v < sh.n; v++ {
			p := g.nodePos(v)
			p.T = 5
			pts = g.operands(p, pts[:0])
			nb = append(append(nb[:0], v), g.mesh.Neighbors(v, nil)...)
			if len(pts) != len(nb) {
				t.Fatalf("d=%d n=%d node %d: %d operands, want %d", sh.d, sh.n, v, len(pts), len(nb))
			}
			for i, q := range pts {
				if q.T != 4 || g.nodeIndex(q) != nb[i] {
					t.Errorf("d=%d n=%d node %d: operand %d = %v (node %d), want node %d at T=4",
						sh.d, sh.n, v, i, q, g.nodeIndex(q), nb[i])
				}
			}
		}
	}
}
