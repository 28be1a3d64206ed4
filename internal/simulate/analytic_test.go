package simulate

import (
	"context"
	"math"
	"sort"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/guest"
	"bsmp/internal/lattice"
)

// walkDiamonds visits every domain the blocked recursion on root would
// visit (root and all descendants down to leaves of span <= leafSpan).
func walkDiamonds(root lattice.Diamond, leafSpan int, visit func(lattice.Diamond)) {
	visit(root)
	if root.Span() <= leafSpan {
		return
	}
	kids := root.Children()
	if kids == nil {
		return
	}
	for _, kd := range kids {
		walkDiamonds(kd.(lattice.Diamond), leafSpan, visit)
	}
}

// The O(width) column geometry must agree with the O(volume) enumeration
// on every domain of the recursion: same columns, same time spans, and
// each column a contiguous interval.
func TestAnalyticColumnsMatchPoints(t *testing.T) {
	for _, tc := range []struct{ n, steps, leafSpan int }{
		{16, 8, 4}, {13, 5, 2}, {32, 3, 4}, {5, 12, 2},
	} {
		root := lattice.DiamondAround(tc.n, tc.steps+1)
		walkDiamonds(root, tc.leafSpan, func(d lattice.Diamond) {
			type span struct{ ta, tb, count int }
			byX := map[int]*span{}
			d.Points(func(p lattice.Point) bool {
				s, ok := byX[p.X]
				if !ok {
					byX[p.X] = &span{ta: p.T, tb: p.T, count: 1}
					return true
				}
				if p.T < s.ta {
					s.ta = p.T
				}
				if p.T > s.tb {
					s.tb = p.T
				}
				s.count++
				return true
			})
			var xs []int
			for x := range byX {
				xs = append(xs, x)
			}
			sort.Ints(xs)
			got := analyticColumns(d)
			if len(got) != len(xs) {
				t.Fatalf("n=%d steps=%d %v: %d columns, want %d", tc.n, tc.steps, d, len(got), len(xs))
			}
			for i, x := range xs {
				s := byX[x]
				if s.count != s.tb-s.ta+1 {
					t.Fatalf("n=%d steps=%d %v: column %d not contiguous", tc.n, tc.steps, d, x)
				}
				g := got[i]
				if g.pos.X != x || g.ta != s.ta || g.tb != s.tb {
					t.Fatalf("n=%d steps=%d %v: column %d = {%d,%d,%d}, want {%d,%d,%d}",
						tc.n, tc.steps, d, i, g.pos.X, g.ta, g.tb, x, s.ta, s.tb)
				}
			}
		})
	}
}

// The O(width) preboundary and live-out enumerations must reproduce the
// dag package's O(volume) versions exactly — same points in the same
// order, since copy-in charge sequences and record address vectors are
// both order-sensitive.
func TestAnalyticBoundaryMatchesDag(t *testing.T) {
	for _, tc := range []struct{ n, steps, leafSpan int }{
		{16, 8, 4}, {13, 5, 2}, {32, 3, 4}, {5, 12, 2},
	} {
		g := dag.NewLineGraph(tc.n, tc.steps+1)
		root := g.Domain().(lattice.Diamond)
		walkDiamonds(root, tc.leafSpan, func(d lattice.Diamond) {
			wantPre := dag.Preboundary(g, d)
			gotPre := analyticPreboundary(d, tc.n)
			if len(gotPre) != len(wantPre) {
				t.Fatalf("n=%d steps=%d %v: preboundary %d points, want %d",
					tc.n, tc.steps, d, len(gotPre), len(wantPre))
			}
			for i := range wantPre {
				if gotPre[i] != wantPre[i] {
					t.Fatalf("n=%d steps=%d %v: preboundary[%d] = %v, want %v",
						tc.n, tc.steps, d, i, gotPre[i], wantPre[i])
				}
			}
			wantLive := dag.LiveOut(g, d)
			gotLive := analyticLiveOut(d, tc.n, tc.steps)
			if len(gotLive) != len(wantLive) {
				t.Fatalf("n=%d steps=%d %v: liveout %d points, want %d",
					tc.n, tc.steps, d, len(gotLive), len(wantLive))
			}
			for i := range wantLive {
				if gotLive[i] != wantLive[i] {
					t.Fatalf("n=%d steps=%d %v: liveout[%d] = %v, want %v",
						tc.n, tc.steps, d, i, gotLive[i], wantLive[i])
				}
			}
		})
	}
}

// The analytic engine charges the same work as the exact engine: Compute
// is exactly one unit per lattice vertex, per-category charge counts are
// identical, totals and the virtual time agree to float regrouping
// (replay sums deltas, so bit-identity is not expected), and the space
// bound is the same recursion invariant.
func TestAnalyticMatchesExact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n, m  int
		steps int
		memo  bool
	}{
		{"mixca-memo", 64, 4, 16, true},
		{"mixca-nomemo", 64, 4, 16, false},
		{"mixca-m8", 48, 8, 12, true},
		{"rule90", 64, 4, 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var prog = guest.AsNetwork{G: guest.MixCA{Seed: 9}}
			if tc.name == "rule90" {
				prog = guest.AsNetwork{G: guest.Rule90{Seed: 1}}
			}
			ctx := context.Background()
			if !tc.memo {
				ctx = WithoutMemo(ctx)
			}
			exact, err := BlockedContext(WithoutMemo(context.Background()), 1, tc.n, tc.m, tc.steps, 0, prog)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BlockedAnalyticD1Context(ctx, tc.n, tc.m, tc.steps, 0, prog)
			if err != nil {
				t.Fatal(err)
			}
			if got.Outputs != nil || got.Memories != nil {
				t.Error("analytic result carries guest outputs; want nil")
			}
			if got.Space != exact.Space {
				t.Errorf("Space = %d, exact %d", got.Space, exact.Space)
			}
			rel := math.Abs(float64(got.Time-exact.Time)) / float64(exact.Time)
			if rel > 1e-9 {
				t.Errorf("Time = %v, exact %v (rel %g)", got.Time, exact.Time, rel)
			}
			vol := int64(tc.n * (tc.steps + 1))
			if c := got.Ledger.Count(cost.Compute); c != vol {
				t.Errorf("Compute count = %d, want %d", c, vol)
			}
			if tot := float64(got.Ledger.Total(cost.Compute)); tot != float64(vol) {
				t.Errorf("Compute total = %v, want %d exactly", tot, vol)
			}
			for _, c := range cost.Categories() {
				if got.Ledger.Count(c) != exact.Ledger.Count(c) {
					t.Errorf("%v count = %d, exact %d", c, got.Ledger.Count(c), exact.Ledger.Count(c))
				}
				gt, et := float64(got.Ledger.Total(c)), float64(exact.Ledger.Total(c))
				if et == 0 {
					if gt != 0 {
						t.Errorf("%v total = %v, exact 0", c, gt)
					}
					continue
				}
				if math.Abs(gt-et)/et > 1e-9 {
					t.Errorf("%v total = %v, exact %v", c, gt, et)
				}
			}
		})
	}
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
