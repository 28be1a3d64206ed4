package simulate

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/guest"
	"bsmp/internal/lattice"
)

// analyticGeometryCases are the (n, steps, leafSpan) tuples the geometry
// tests walk: powers of two and not, wide and tall.
var analyticGeometryCases = []struct{ n, steps, leafSpan int }{
	{16, 8, 4}, {13, 5, 2}, {32, 3, 4}, {5, 12, 2},
}

// walkAnalytic visits every domain the blocked recursion visits on an
// n-node line over steps steps — the root and all its descendants down
// to leaves — with the geometry the engine computes for each, in both of
// its modes.
func walkAnalytic(n, steps, leafSpan int, visit func(lattice.Domain, dag.Surface)) {
	g, root := guestDag(1, n, steps+1)
	b := newBlockedExec(context.Background(), g, nil, 1, 1, steps, leafSpan, newBlockedGeom(1, n))
	var walk func(d lattice.Domain)
	walk = func(d lattice.Domain) {
		var s dag.Surface
		b.bd.Compute(b.g, d, b.order, &s)
		visit(d, s)
		if b.isLeaf(d) {
			return
		}
		for _, kd := range d.Children() {
			walk(kd)
		}
	}
	walk(root)
}

// The engine's O(width) column geometry must agree with the O(volume)
// enumeration on every domain of the recursion: same columns in position
// order, same time spans, and each column a contiguous interval.
func TestAnalyticColumnsMatchPoints(t *testing.T) {
	for _, tc := range analyticGeometryCases {
		walkAnalytic(tc.n, tc.steps, tc.leafSpan, func(d lattice.Domain, s dag.Surface) {
			type span struct{ ta, tb, count int }
			byX := map[int]*span{}
			d.Points(func(p lattice.Point) bool {
				sp, ok := byX[p.X]
				if !ok {
					byX[p.X] = &span{ta: p.T, tb: p.T, count: 1}
					return true
				}
				sp.ta, sp.tb = min(sp.ta, p.T), max(sp.tb, p.T)
				sp.count++
				return true
			})
			var xs []int
			for x := range byX {
				xs = append(xs, x)
			}
			slices.Sort(xs)
			if len(s.Cols) != len(xs) {
				t.Fatalf("n=%d steps=%d %v: %d columns, want %d", tc.n, tc.steps, d, len(s.Cols), len(xs))
			}
			for i, x := range xs {
				sp := byX[x]
				if sp.count != sp.tb-sp.ta+1 {
					t.Fatalf("n=%d steps=%d %v: column %d not contiguous", tc.n, tc.steps, d, x)
				}
				want := lattice.Column{Pos: lattice.Point{X: x}, Ta: sp.ta, Tb: sp.tb}
				if s.Cols[i] != want {
					t.Fatalf("n=%d steps=%d %v: column %d = %v, want %v", tc.n, tc.steps, d, i, s.Cols[i], want)
				}
			}
		})
	}
}

// The engine's O(width) preboundary and live-out enumerations must
// reproduce an O(volume) walk of the line's dag exactly — same points in
// the same order, since copy-in charge sequences and record address
// vectors are both order-sensitive.
func TestAnalyticBoundaryMatchesDag(t *testing.T) {
	for _, tc := range analyticGeometryCases {
		g := dag.NewLineGraph(tc.n, tc.steps+1)
		walkAnalytic(tc.n, tc.steps, tc.leafSpan, func(d lattice.Domain, s dag.Surface) {
			var wantPre, wantLive, buf []lattice.Point
			seen := map[lattice.Point]bool{}
			d.Points(func(p lattice.Point) bool {
				buf = g.Preds(p, buf[:0])
				for _, q := range buf {
					if !d.Contains(q) && !seen[q] {
						seen[q] = true
						wantPre = append(wantPre, q)
					}
				}
				live := p.T == g.Steps()-1
				buf = g.Succs(p, buf[:0])
				for _, q := range buf {
					live = live || !d.Contains(q)
				}
				if live {
					wantLive = append(wantLive, p)
				}
				return true
			})
			if !slices.Equal(s.Pre, wantPre) {
				t.Fatalf("n=%d steps=%d %v: preboundary\n got %v\nwant %v", tc.n, tc.steps, d, s.Pre, wantPre)
			}
			if !slices.Equal(s.Live, wantLive) {
				t.Fatalf("n=%d steps=%d %v: live-out\n got %v\nwant %v", tc.n, tc.steps, d, s.Live, wantLive)
			}
		})
	}
}

// analyticCase is one shape of the analytic ≡ exact law.
type analyticCase struct {
	name                 string
	d, n, m, steps, leaf int
	memo                 bool
	prog                 guest.AsNetwork
}

// analyticCases are the law's shapes: four small d = 1 anchors; d = 1
// lines of 33–512 nodes (powers of two and not), m 1–16, the default
// leaf span and spans 2 and 3, MixCA and Rule90; and d = 2 and 3 meshes,
// which only the shared runner reaches (the registry serves the
// analytic mode at d = 1). Every generated shape runs memo on and off.
func analyticCases() []analyticCase {
	mixca := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	rule90 := guest.AsNetwork{G: guest.Rule90{Seed: 1}}
	cases := []analyticCase{
		{"mixca-memo", 1, 64, 4, 16, 0, true, mixca},
		{"mixca-nomemo", 1, 64, 4, 16, 0, false, mixca},
		{"mixca-m8", 1, 48, 8, 12, 0, true, mixca},
		{"rule90", 1, 64, 4, 16, 0, true, rule90},
	}
	add := func(d, n, m, steps, leaf int, prog guest.AsNetwork) {
		for _, memo := range []bool{true, false} {
			name := fmt.Sprintf("d%d/n%d-m%d-steps%d-leaf%d-%T/memo=%v", d, n, m, steps, leaf, prog.G, memo)
			cases = append(cases, analyticCase{name, d, n, m, steps, leaf, memo, prog})
		}
	}
	progs := []guest.AsNetwork{mixca, rule90}
	for i, n := range []int{33, 64, 100, 257, 512} {
		for j, m := range []int{1, 4, 16} {
			for k, leaf := range []int{0, 2, 3} {
				add(1, n, m, min(n/4, 32), leaf, progs[(i+j+k)%2])
			}
		}
	}
	for i, m := range []int{1, 4} {
		for _, side := range []int{4, 8} {
			grid := progs[i]
			grid.Side = side
			add(2, side*side, m, 2*side, 0, grid)
			add(2, side*side, m, side, 2, grid)
		}
		cube := progs[1-i]
		cube.CubeSide = 4
		add(3, 64, m, 8, 0, cube)
		cube.CubeSide = 3
		add(3, 27, m, 6, 2, cube)
	}
	return cases
}

// The analytic mode charges the same work as the exact engine: it is the
// same recursion on a charge-only machine. With memoization off the two
// are equal bit for bit — Time, Space, and every category's total and
// count. With it on (from a cold store), congruent subtrees replay as
// summed deltas, so the totals agree to float regrouping (1e-9
// relative) and the counts exactly. Compute is exactly one unit per
// lattice vertex either way.
func TestAnalyticMatchesExact(t *testing.T) {
	defer SetMemoCapacity(MemoCapacity())
	for _, tc := range analyticCases() {
		t.Run(tc.name, func(t *testing.T) {
			exact, err := BlockedContext(WithoutMemo(context.Background()), tc.d, tc.n, tc.m, tc.steps, tc.leaf, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			ctx := WithoutMemo(context.Background())
			if tc.memo {
				ctx = context.Background()
				SetMemoCapacity(0)
				SetMemoCapacity(DefaultMemoCapacity)
			}
			got, err := runBlocked(ctx, "blocked-analytic", tc.d, tc.n, tc.m, tc.steps, tc.leaf, tc.prog, true)
			if err != nil {
				t.Fatal(err)
			}
			if got.Outputs != nil || got.Memory != nil {
				t.Error("analytic result carries guest outputs; want nil")
			}
			if diff := chargesDiff(got, exact, !tc.memo); diff != "" {
				t.Error(diff)
			}
			vol := int64(tc.n * (tc.steps + 1))
			if c := got.Ledger.Count(cost.Compute); c != vol {
				t.Errorf("Compute count = %d, want %d", c, vol)
			}
			if tot := float64(got.Ledger.Total(cost.Compute)); tot != float64(vol) {
				t.Errorf("Compute total = %v, want %d exactly", tot, vol)
			}
		})
	}
}

// chargesDiff reports how got differs from want in Time, Space or any
// category's total or count, "" when it does not. Counts and Space must
// be equal; Time and totals bit for bit when exact, else within 1e-9
// relative.
func chargesDiff(got, want Result, exact bool) string {
	near := func(a, b float64) bool { return a == b || !exact && math.Abs(a-b) <= 1e-9*math.Abs(b) }
	if !near(float64(got.Time), float64(want.Time)) {
		return fmt.Sprintf("Time = %v, want %v", got.Time, want.Time)
	}
	if got.Space != want.Space {
		return fmt.Sprintf("Space = %d, want %d", got.Space, want.Space)
	}
	for _, c := range cost.Categories() {
		if !near(float64(got.Ledger.Total(c)), float64(want.Ledger.Total(c))) || got.Ledger.Count(c) != want.Ledger.Count(c) {
			return fmt.Sprintf("%v = %v/%d, want %v/%d", c, got.Ledger.Total(c), got.Ledger.Count(c),
				want.Ledger.Total(c), want.Ledger.Count(c))
		}
	}
	return ""
}

// The analytic run must honor cancellation and progress like the exact
// engine: progress meter totals reach the full volume, and an
// already-cancelled context aborts before doing work.
func TestAnalyticProgressAndCancel(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	var pm Progress
	ctx := WithProgress(context.Background(), &pm)
	if _, err := BlockedAnalyticD1Context(ctx, 64, 4, 16, 0, prog); err != nil {
		t.Fatal(err)
	}
	if done := pm.Vertices.Load(); done != 64*17 {
		t.Errorf("progress vertices = %d, want %d", done, 64*17)
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BlockedAnalyticD1Context(cctx, 1024, 4, 256, 0, prog); err == nil {
		t.Error("cancelled analytic run returned nil error")
	}
}

// A large instance — beyond what the exact engine can touch in test time
// (n = 2^16 x steps = 2^8: 16.8M vertices) — must complete quickly on
// the analytic path and respect the work/span laws: Time >= span,
// Time >= total work (P = 1), and the model's bandwidth lower bound.
func TestAnalyticLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n analytic run")
	}
	const n, m, steps = 1 << 16, 8, 1 << 8
	defer SetMemoCapacity(MemoCapacity())
	SetMemoCapacity(1 << 16)
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	res, err := BlockedAnalyticD1Context(context.Background(), n, m, steps, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	vol := int64(n) * int64(steps+1)
	if c := res.Ledger.Count(cost.Compute); c != vol {
		t.Errorf("Compute count = %d, want %d", c, vol)
	}
	work := float64(res.Ledger.Sum())
	if float64(res.Time) < work {
		t.Errorf("Time %v below serial work %v", res.Time, work)
	}
	if float64(res.Time) < float64(steps+1) {
		t.Errorf("Time %v below span %d", res.Time, steps+1)
	}
}
