package simulate

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/guest"
	"bsmp/internal/lattice"
)

func TestUniDCFunctionalD1(t *testing.T) {
	prog := guest.MixCA{Seed: 4}
	for _, n := range []int{8, 16, 32, 48} {
		uniDCVerified(t, 1, n, n, 8, prog)
	}
}

func TestUniDCFunctionalD2(t *testing.T) {
	prog := guest.MixCA{Seed: 5}
	for _, c := range []struct{ side, steps, leaf int }{
		{3, 3, 8}, {4, 4, 8}, {6, 6, 8}, {8, 8, 8}, {4, 4, 1}, {5, 3, 2},
	} {
		uniDCVerified(t, 2, c.side*c.side, c.steps, c.leaf, prog)
	}
}

// uniDCVerified runs UniDC on the n-node d-dimensional guest over steps
// layers at the given leaf size and checks its outputs against
// dag.Reference. The machine is sized to the planned allowance and the
// H-RAM panics on any address past it, so a run that returns also kept
// within its allowance.
func uniDCVerified(t *testing.T, d, n, steps, leaf int, prog dag.Program) Result {
	t.Helper()
	res, err := UniDCContext(context.Background(), d, n, steps, leaf, prog)
	if err != nil {
		t.Fatalf("d=%d n=%d steps=%d leaf=%d: %v", d, n, steps, leaf, err)
	}
	if err := VerifyDag(res, d, n, prog); err != nil {
		t.Fatalf("d=%d n=%d steps=%d leaf=%d: %v", d, n, steps, leaf, err)
	}
	return res
}

// Line dags of powers of two and odd shapes, wide and tall.
func TestLineOutputsMatchReference(t *testing.T) {
	for _, c := range []struct{ n, steps, leaf int }{
		{4, 4, 1}, {8, 8, 8}, {16, 16, 8}, {13, 9, 4}, {32, 32, 8}, {7, 20, 2},
	} {
		uniDCVerified(t, 1, c.n, c.steps, c.leaf, guest.MixCA{Seed: 4})
	}
}

// Mesh dags of square and odd sides, tall and at leaf sizes 4 to 16.
func TestMeshOutputsMatchReference(t *testing.T) {
	for _, c := range []struct{ side, steps, leaf int }{
		{3, 3, 8}, {4, 4, 8}, {6, 6, 8}, {5, 9, 4}, {8, 8, 16},
	} {
		uniDCVerified(t, 2, c.side*c.side, c.steps, c.leaf, guest.MixCA{Seed: 5})
	}
}

// The leaf size changes the cost constants, never the outputs: leaves
// from one vertex to past the whole dag.
func TestLeafSizeInvariance(t *testing.T) {
	for _, leaf := range []int{1, 2, 4, 16, 64} {
		uniDCVerified(t, 1, 12, 12, leaf, guest.MixCA{Seed: 4})
	}
}

// Runs at small leaves, where the recursion is deepest, fit the machine
// sized to the planned allowance, which holds at least the final layer.
func TestExactAllowanceNeverOverflows(t *testing.T) {
	for _, n := range []int{8, 12, 16, 24} {
		res := uniDCVerified(t, 1, n, n, 4, guest.MixCA{Seed: 4})
		if res.Space < n {
			t.Errorf("n=%d: allowance %d smaller than one layer", n, res.Space)
		}
	}
}

// Leaf 0 selects the default leaf size, 8: the same run, cost for cost.
func TestZeroLeafSizeDefaults(t *testing.T) {
	prog := guest.MixCA{Seed: 4}
	def := uniDCVerified(t, 1, 8, 8, 0, prog)
	eight := uniDCVerified(t, 1, 8, 8, 8, prog)
	if def.Time != eight.Time || def.Space != eight.Space || def.Ledger != eight.Ledger {
		t.Errorf("leaf 0 ran at time %v, space %d; leaf 8 at time %v, space %d",
			def.Time, def.Space, eight.Time, eight.Space)
	}
}

func TestUniNaiveDagFunctional(t *testing.T) {
	prog := guest.MixCA{Seed: 6}
	res, err := UniNaiveDagContext(context.Background(), 1, 16, 16, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDag(res, 1, 16, prog); err != nil {
		t.Fatal(err)
	}
	res2, err := UniNaiveDagContext(context.Background(), 2, 16, 4, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDag(res2, 2, 16, prog); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem2ShapeBeatsNaiveAsymptotically(t *testing.T) {
	// The load-bearing claim of Theorem 2: UniDC time grows like
	// n²·log n (exponent ~2.1) while the naive baseline grows like n³
	// (exponent ~3 for d = 1 time over the T = n computation... the
	// naive dag run costs Θ(n) per vertex, n² vertices: Θ(n³)).
	prog := guest.Rule90{Seed: 1}
	var logN, logDC, logNv []float64
	for _, n := range []int{16, 32, 64, 128} {
		dc, err := UniDCContext(context.Background(), 1, n, n, 8, prog)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := UniNaiveDagContext(context.Background(), 1, n, n, prog)
		if err != nil {
			t.Fatal(err)
		}
		logN = append(logN, math.Log2(float64(n)))
		logDC = append(logDC, math.Log2(float64(dc.Time)))
		logNv = append(logNv, math.Log2(float64(nv.Time)))
	}
	dcSlope := fitSlope(logN, logDC)
	nvSlope := fitSlope(logN, logNv)
	if nvSlope < 2.7 || nvSlope > 3.3 {
		t.Errorf("naive exponent %v, want ~3", nvSlope)
	}
	if dcSlope > nvSlope-0.5 {
		t.Errorf("divide-and-conquer exponent %v not clearly below naive %v", dcSlope, nvSlope)
	}
}

// Theorem 2's Θ(n² log n) itself, for the n-node, T = n line dag: the
// fitted log-log exponent is ~2 up to the log factor, and τ/(n² log n)
// does not drift up across the dyadic sweep.
func TestTimeNearNSquaredLogN(t *testing.T) {
	var logN, logT []float64
	for _, n := range []int{16, 32, 64, 128} {
		res, err := UniDCContext(context.Background(), 1, n, n, 8, guest.Rule90{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		logN = append(logN, math.Log2(float64(n)))
		logT = append(logT, math.Log2(float64(res.Time)))
	}
	if slope := fitSlope(logN, logT); slope < 1.7 || slope > 2.6 {
		t.Errorf("growth exponent %v, want ~2.1 (n² log n), far below naive's 3", slope)
	}
	for i := 1; i < len(logN); i++ {
		prev := math.Exp2(logT[i-1]-2*logN[i-1]) / logN[i-1]
		if cur := math.Exp2(logT[i]-2*logN[i]) / logN[i]; cur > prev*1.6 {
			t.Errorf("τ/(n² log n) drifting up at n = %v: %v after %v", math.Exp2(logN[i]), cur, prev)
		}
	}
}

func TestTheorem5ShapeD2(t *testing.T) {
	// d = 2: UniDC grows ~ k log k in dag size k = n^1.5 => in terms of
	// n: exponent ~1.5 (+log); naive dag run: n^1.5 vertices × √n access
	// = n² => exponent 2.
	prog := guest.Rule90{Seed: 2}
	var logN, logDC, logNv, boundRatios []float64
	for _, side := range []int{8, 16, 32} {
		n := side * side
		dc, err := UniDCContext(context.Background(), 2, n, side, 8, prog)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := UniNaiveDagContext(context.Background(), 2, n, side, prog)
		if err != nil {
			t.Fatal(err)
		}
		k := float64(side * side * side)
		boundRatios = append(boundRatios, float64(dc.Time)/(k*math.Log2(k)))
		logN = append(logN, math.Log2(float64(n)))
		logDC = append(logDC, math.Log2(float64(dc.Time)))
		logNv = append(logNv, math.Log2(float64(nv.Time)))
	}
	dcSlope := fitSlope(logN, logDC)
	nvSlope := fitSlope(logN, logNv)
	if nvSlope < 1.7 || nvSlope > 2.3 {
		t.Errorf("naive d=2 exponent %v, want ~2", nvSlope)
	}
	if dcSlope >= nvSlope {
		t.Errorf("divide-and-conquer d=2 exponent %v not below naive %v", dcSlope, nvSlope)
	}
	// Consistency with Θ(k·log k): the ratio τ/(k·Log k) converges — its
	// successive increments shrink (pure power-law excess would grow them).
	inc1 := boundRatios[1] - boundRatios[0]
	inc2 := boundRatios[2] - boundRatios[1]
	if inc2 >= inc1 {
		t.Errorf("τ/(k·log k) increments not shrinking: %v", boundRatios)
	}
}

func TestGuestTimePositiveAndLinear(t *testing.T) {
	prog := netProg(0)
	t8, _ := GuestTimeContext(context.Background(), 1, 32, 2, 8, prog)
	t16, _ := GuestTimeContext(context.Background(), 1, 32, 2, 16, prog)
	if t8 <= 0 || t16 <= 0 {
		t.Fatal("non-positive guest time")
	}
	if r := float64(t16) / float64(t8); r < 1.8 || r > 2.2 {
		t.Errorf("guest time not linear in steps: ratio %v", r)
	}
}

func TestUniDCBadDimension(t *testing.T) {
	if _, err := UniDCContext(context.Background(), 4, 8, 8, 8, guest.Rule90{}); err == nil {
		t.Fatal("d=4 did not error")
	}
}

// Transfer (the recursion's copy-downs and stagings) and Access (the
// leaves' operand reads) are both charged, and every vertex costs one
// Compute unit, at d = 1, 2 and 3.
func TestTransferAndAccessBothCharged(t *testing.T) {
	for _, c := range []struct{ d, n, steps int }{{1, 16, 16}, {2, 16, 4}, {3, 27, 3}} {
		r, err := UniDCContext(context.Background(), c.d, c.n, c.steps, 4, guest.MixCA{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Ledger.Total(cost.Transfer) == 0 {
			t.Errorf("d=%d: no Transfer charges: preboundary copies not happening", c.d)
		}
		if r.Ledger.Total(cost.Access) == 0 {
			t.Errorf("d=%d: no Access charges", c.d)
		}
		vertices := c.n * c.steps
		if r.Ledger.Total(cost.Compute) != float64(vertices) || r.Ledger.Count(cost.Compute) != int64(vertices) {
			t.Errorf("d=%d: compute = %v over %d ops, want one unit op per vertex = %d",
				c.d, r.Ledger.Total(cost.Compute), r.Ledger.Count(cost.Compute), vertices)
		}
	}
}

// The recursion's level profile: every inner depth counts at least
// twice the domains of the one above (the d = 1 split is four-way), the
// middle depths' Transfer time stays within a modest band — neither
// growing geometrically (k^(1+ε)) nor collapsing, the ~log k levels of
// O(k) each behind τ(k) = O(k·log k) — and, since the vertex flow
// charges Transfer only in copy-downs and stagings, the depths' Transfer
// times sum to the ledger's.
func TestPerLevelTransferFlat(t *testing.T) {
	r, err := UniDCContext(context.Background(), 1, 128, 128, 8, guest.MixCA{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Levels) < 4 {
		t.Fatalf("only %d levels recorded", len(r.Levels))
	}
	if r.Levels[0].Domains != 1 {
		t.Errorf("depth 0 has %d domains, want the root alone", r.Levels[0].Domains)
	}
	// Skip the outermost and innermost level (boundary effects).
	mid := r.Levels[1 : len(r.Levels)-1]
	lo, hi := mid[0].TransferTime, mid[0].TransferTime
	for _, l := range mid {
		lo, hi = min(lo, l.TransferTime), max(hi, l.TransferTime)
	}
	if hi/lo > 6 {
		t.Errorf("per-level transfer band %.1fx across %d middle levels — not O(k) per level: %+v",
			hi/lo, len(mid), mid)
	}
	for i := 1; i < len(r.Levels)-1; i++ {
		if r.Levels[i].Domains < 2*r.Levels[i-1].Domains {
			t.Errorf("level %d has %d domains, want >= 2x previous %d",
				i, r.Levels[i].Domains, r.Levels[i-1].Domains)
		}
	}
	var sum float64
	for _, l := range r.Levels {
		sum += l.TransferTime
	}
	if want := r.Ledger.Total(cost.Transfer); math.Abs(sum-want) > 1e-9*want {
		t.Errorf("levels' Transfer time sums to %v, ledger %v", sum, want)
	}
}

// Failure injection: the recursion must fail loudly, never fabricate
// operands, when the partition it is handed breaks the topological
// partition contract of Proposition 2. The recursion partitions domains
// through blockedExec.children, so a test can hand it a broken one.

// runPartitioned runs prog's line dag g from its full domain on the
// vertex flow with leaf size 8, partitioning every domain by children.
func runPartitioned(g dag.LineGraph, prog dag.Program, children func(lattice.Domain) []lattice.Domain) (Result, error) {
	b := newVertexExec(context.Background(), g, prog, 8, newBlockedGeom(1, g.Nodes()))
	b.children = children
	return b.run(g.Domain(), false)
}

// TestReversedChildrenFailLoudly reverses every domain's children,
// breaking Definition 4: earlier pieces now need values of later ones.
func TestReversedChildrenFailLoudly(t *testing.T) {
	g := dag.NewLineGraph(16, 16)
	_, err := runPartitioned(g, guest.MixCA{Seed: 1}, func(d lattice.Domain) []lattice.Domain {
		kids := d.Children()
		slices.Reverse(kids)
		return kids
	})
	if err == nil {
		t.Fatal("reversed topological order executed without error")
	}
	if !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestOverlappingChildrenDetected duplicates the root's first child, so
// the same vertices execute twice.
func TestOverlappingChildrenDetected(t *testing.T) {
	g := dag.NewLineGraph(8, 8)
	prog := guest.MixCA{Seed: 1}
	root := g.Domain()
	r, err := runPartitioned(g, prog, func(d lattice.Domain) []lattice.Domain {
		kids := d.Children()
		if d == root {
			kids = append([]lattice.Domain{kids[0]}, kids...)
		}
		return kids
	})
	if err != nil {
		return
	}
	// If it survives, the outputs must still be correct (idempotent
	// re-execution); anything else is silent corruption.
	if err := VerifyDag(r, 1, 8, prog); err != nil {
		t.Fatalf("overlapping children corrupted outputs silently: %v", err)
	}
}

func TestExecuteSubdomainFailsWithoutPreboundary(t *testing.T) {
	// An interior diamond run without its preboundary loaded must fail,
	// not fabricate operands.
	g := dag.NewLineGraph(16, 16)
	d := lattice.NewDiamond(10, -4, 6, lattice.ClipAll1D(16, 16))
	if d.Size() == 0 {
		t.Fatal("test domain empty")
	}
	if _, err := runVertices(context.Background(), g, d, 8, guest.MixCA{Seed: 1}); err == nil {
		t.Fatal("interior domain executed without preboundary")
	}
}

// corruptProg returns a wrong value at one vertex.
type corruptProg struct {
	guest.MixCA
	target lattice.Point
}

func (c corruptProg) Step(v lattice.Point, ops []dag.Value) dag.Value {
	if v == c.target {
		return c.MixCA.Step(v, ops) ^ 1
	}
	return c.MixCA.Step(v, ops)
}

// VerifyDag, the oracle of every functional test above, must catch a
// single corrupted vertex.
func TestOracleDetectsSingleVertexCorruption(t *testing.T) {
	prog := corruptProg{target: lattice.Point{X: 5, T: 6}}
	r, err := UniDCContext(context.Background(), 1, 12, 12, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyDag(r, 1, 12, prog.MixCA) == nil {
		t.Fatal("single-vertex corruption did not propagate to outputs — oracle too weak")
	}
}
