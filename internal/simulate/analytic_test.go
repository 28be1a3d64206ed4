package simulate

import (
	"context"
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

// walkAnalytic visits every domain the analytic engine's recursion
// visits on an n-node line over steps steps — the root and all its
// descendants down to leaves — with the engine's geometry of each.
func walkAnalytic(n, steps, leafSpan int, visit func(lattice.Diamond, dag.Surface)) {
	a := &analyticExec{n: n, steps: steps, leafSpan: leafSpan, g: dag.NewLineGraph(n, steps+1)}
	var walk func(d lattice.Diamond)
	walk = func(d lattice.Diamond) {
		var s dag.Surface
		a.surface(d, &s)
		visit(d, s)
		if a.isLeaf(d) {
			return
		}
		for _, kd := range d.Children() {
			walk(kd.(lattice.Diamond))
		}
	}
	walk(lattice.DiamondAround(n, steps+1))
}

// The engine's O(width) column geometry must agree with the O(volume)
// enumeration on every domain of the recursion: same columns in position
// order, same time spans, and each column a contiguous interval.
func TestAnalyticColumnsMatchPoints(t *testing.T) {
	for _, tc := range analyticGeometryCases {
		walkAnalytic(tc.n, tc.steps, tc.leafSpan, func(d lattice.Diamond, s dag.Surface) {
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
		walkAnalytic(tc.n, tc.steps, tc.leafSpan, func(d lattice.Diamond, s dag.Surface) {
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
