package dag

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bsmp/internal/lattice"
)

// volume holds the dedup set of the O(volume) oracle, cleared after
// every call so its buckets are reused.
type volume struct{ seen map[lattice.Point]bool }

// preboundary is the oracle of Surface.Pre: walk every vertex of the
// domain in (T, X, Y, Z) order and keep each predecessor outside it the
// first time it is met.
func (v *volume) preboundary(g Graph, dom lattice.Domain) []lattice.Point {
	if v.seen == nil {
		v.seen = make(map[lattice.Point]bool)
	}
	defer clear(v.seen)
	var out, buf []lattice.Point
	dom.Points(func(p lattice.Point) bool {
		buf = g.Preds(p, buf[:0])
		for _, q := range buf {
			if !dom.Contains(q) && !v.seen[q] {
				v.seen[q] = true
				out = append(out, q)
			}
		}
		return true
	})
	return out
}

// volumeLiveOut is the oracle of Surface.Live: every vertex of the
// final layer or with a successor outside the domain, in (T, X, Y, Z)
// order.
func volumeLiveOut(g Graph, dom lattice.Domain) []lattice.Point {
	var out, buf []lattice.Point
	last := g.Steps() - 1
	dom.Points(func(p lattice.Point) bool {
		if p.T == last {
			out = append(out, p)
			return true
		}
		buf = g.Succs(p, buf[:0])
		for _, q := range buf {
			if !dom.Contains(q) {
				out = append(out, p)
				break
			}
		}
		return true
	})
	return out
}

// volumeColumns is the O(volume) oracle of Surface.Cols in both orders:
// by start is the order a (T, X, Y, Z) walk first meets the columns. It
// fails t unless every column is one contiguous interval of times.
func volumeColumns(t testing.TB, dom lattice.Domain) (byPos, byStart []lattice.Column) {
	at := map[lattice.Point]int{}
	count := map[lattice.Point]int{}
	dom.Points(func(p lattice.Point) bool {
		pos := lattice.Point{X: p.X, Y: p.Y, Z: p.Z}
		count[pos]++
		if i, ok := at[pos]; ok {
			byStart[i].Ta, byStart[i].Tb = min(byStart[i].Ta, p.T), max(byStart[i].Tb, p.T)
			return true
		}
		at[pos] = len(byStart)
		byStart = append(byStart, lattice.Column{Pos: pos, Ta: p.T, Tb: p.T})
		return true
	})
	for _, c := range byStart {
		if count[c.Pos] != c.Tb-c.Ta+1 {
			t.Fatalf("%v: column %v holds %d vertices in [%d, %d]", dom, c.Pos, count[c.Pos], c.Ta, c.Tb)
		}
	}
	byPos = slices.Clone(byStart)
	slices.SortFunc(byPos, func(a, b lattice.Column) int {
		if a.Pos.X != b.Pos.X {
			return a.Pos.X - b.Pos.X
		}
		if a.Pos.Y != b.Pos.Y {
			return a.Pos.Y - b.Pos.Y
		}
		return a.Pos.Z - b.Pos.Z
	})
	return byPos, byStart
}

// checkBoundary asserts the law: b's enumeration of dom equals the
// volume oracle point for point and in order.
func checkBoundary(t testing.TB, b *Boundary, g Graph, dom lattice.Domain) {
	t.Helper()
	byPos, byStart := volumeColumns(t, dom)
	var s Surface
	var v volume
	b.Compute(g, dom, ByPosition, &s)
	same(t, g, dom, "columns by position", s.Cols, byPos)
	same(t, g, dom, "preboundary", s.Pre, v.preboundary(g, dom))
	same(t, g, dom, "live-out", s.Live, volumeLiveOut(g, dom))
	b.Compute(g, dom, ByStart, &s)
	same(t, g, dom, "columns by start", s.Cols, byStart)
}

func same[E comparable](t testing.TB, g Graph, dom lattice.Domain, what string, got, want []E) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%T%v %v: %s\n got %v\nwant %v", g, g, dom, what, got, want)
	}
}

// walkTree visits dom and every domain of its decomposition tree.
func walkTree(dom lattice.Domain, visit func(lattice.Domain)) {
	visit(dom)
	for _, k := range dom.Children() {
		walkTree(k, visit)
	}
}

// graphOf returns the d-dimensional graph of the given side and steps.
func graphOf(d, side, steps int) Graph {
	switch d {
	case 1:
		return NewLineGraph(side, steps)
	case 2:
		return NewMeshGraph(side, steps)
	default:
		return NewCubeGraph(side, steps)
	}
}

// rootOf returns g's full domain with its clip replaced by clip.
func rootOf(g Graph, clip lattice.Clip) lattice.Domain {
	r := g.(interface{ Domain() lattice.Domain }).Domain()
	r.Clip = clip
	return r
}

// narrowed returns the graph's bounds shrunk on axis a (0..2 spatial,
// 3 time) by one at each end, where that leaves anything.
func narrowed(bounds lattice.Clip, a int) lattice.Clip {
	lo := []*int{&bounds.X0, &bounds.Y0, &bounds.Z0, &bounds.T0}[a]
	hi := []*int{&bounds.X1, &bounds.Y1, &bounds.Z1, &bounds.T1}[a]
	if *hi-*lo > 2 {
		*lo, *hi = *lo+1, *hi-1
	} else if *hi-*lo == 2 {
		*lo++
	}
	return bounds
}

// The surface enumeration equals the volume oracle on every domain of
// every decomposition tree at d = 1, 2, 3, on the full clip and on
// clips narrower than the graph on each axis, and on the arbitrary
// diamonds TestPropertyPreboundaryAdjacent draws.
func TestBoundaryMatchesVolume(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13, 16}
	steps := map[int][]int{1: {1, 2, 5, 13, 16}, 2: {1, 4, 7}, 3: {1, 3}}
	var b Boundary
	domains := 0
	for d := 1; d <= 3; d++ {
		for _, side := range sizes {
			for _, T := range steps[d] {
				g := graphOf(d, side, T)
				clips := []lattice.Clip{g.Bounds()}
				for a := 0; a < d; a++ {
					clips = append(clips, narrowed(g.Bounds(), a))
				}
				clips = append(clips, narrowed(g.Bounds(), 3))
				for _, clip := range clips {
					walkTree(rootOf(g, clip), func(dom lattice.Domain) {
						checkBoundary(t, &b, g, dom)
						domains++
					})
				}
			}
		}
	}
	g := NewLineGraph(16, 16)
	for u0 := -15; u0 <= 15; u0++ {
		for w0 := -23; w0 <= 7; w0++ {
			for r := 1; r <= 10; r++ {
				checkBoundary(t, &b, g, lattice.NewDiamond(u0, w0, r, lattice.ClipAll1D(16, 16)))
				domains++
			}
		}
	}
	t.Logf("%d domains", domains)
}

// Every domain is a clip cut by half-spaces, so the law holds for
// arbitrary boxes, not only the ones halving produces: any corner, any
// side lengths (including empty and unequal ones, and pair sums that
// disagree at d = 2, 3) and any clip inside the graph.
func FuzzBoundary(f *testing.F) {
	f.Add(uint8(1), uint8(8), uint8(5), []byte{})
	f.Add(uint8(2), uint8(5), uint8(3), []byte{2, 9, 3, 1, 7, 7, 7, 7, 1, 4, 0, 2, 1, 3})
	f.Add(uint8(3), uint8(4), uint8(4), []byte{0, 5, 5, 5, 5, 5, 5, 9, 9, 9, 9, 9, 9, 0, 4, 0, 4, 1, 3, 0, 4})
	f.Fuzz(func(t *testing.T, d, side, steps uint8, raw []byte) {
		dim := int(d%3) + 1
		maxSide := []int{0, 24, 12, 6}[dim]
		g := graphOf(dim, int(side)%maxSide+1, int(steps)%maxSide+1)
		next := func(mod int) int {
			if len(raw) == 0 {
				return 0
			}
			v := int(raw[0]) % mod
			raw = raw[1:]
			return v
		}
		// A clip inside the graph: each bound moved in from the
		// graph's by a drawn amount.
		c := g.Bounds()
		clip := lattice.Clip{
			X0: c.X0 + next(4), X1: c.X1 - next(4),
			Y0: c.Y0, Y1: c.Y1, Z0: c.Z0, Z1: c.Z1,
			T0: c.T0 + next(4), T1: c.T1 - next(4),
		}
		if dim >= 2 {
			clip.Y0, clip.Y1 = c.Y0+next(4), c.Y1-next(4)
		}
		if dim == 3 {
			clip.Z0, clip.Z1 = c.Z0+next(4), c.Z1-next(4)
		}
		// Rotated corners around the graph, then sides up to its span,
		// each drawn in range order P[0], M[0], P[1], M[1], P[2], M[2].
		span := g.Steps() + int(side)%maxSide + 2
		dom := lattice.Domain{Dim: dim, Clip: clip}
		var corner [6]int
		for r := range 2 * dim {
			corner[r] = next(2*span+1) - span
		}
		for r := range 2 * dim {
			rg := [2]int{corner[r], corner[r] + next(span)}
			if r%2 == 0 {
				dom.P[r/2] = rg
			} else {
				dom.M[r/2] = rg
			}
		}
		var b Boundary
		checkBoundary(t, &b, g, dom)
	})
}

// Compute reserves each of its lists once: on a Boundary whose scratch
// is warm, a Surface too small for the domain costs one allocation per
// list, where growing by append took a chain of them, and a second
// Compute of the same domain into the same Surface allocates nothing,
// at d = 1, 2, 3.
func TestBoundaryComputeAllocs(t *testing.T) {
	for _, tc := range []struct{ d, side, steps int }{{1, 1024, 257}, {2, 32, 33}, {3, 16, 17}} {
		g := graphOf(tc.d, tc.side, tc.steps)
		dom := rootOf(g, g.Bounds())
		var b Boundary
		var warm Surface
		b.Compute(g, dom, ByStart, &warm)
		var s Surface
		if n := testing.AllocsPerRun(1, func() {
			s = Surface{}
			b.Compute(g, dom, ByStart, &s)
		}); n > 3 {
			t.Errorf("d=%d: a fresh Surface took %v allocations, want at most 3 (one per list)", tc.d, n)
		}
		if n := testing.AllocsPerRun(5, func() { b.Compute(g, dom, ByStart, &s) }); n != 0 {
			t.Errorf("d=%d: a second Compute into the same Surface allocated %v times, want 0", tc.d, n)
		}
	}
}

// BenchmarkBoundary walks one decomposition tree per dimension at the
// quick battery's shapes and reports the time per domain of the surface
// enumeration against the volume oracle it replaces.
func BenchmarkBoundary(b *testing.B) {
	for _, tc := range []struct {
		d, side, steps, leafSpan int
	}{
		{1, 1024, 257, 8}, // E-BRENT's row scale
		{2, 32, 17, 4},    // n = 1024, steps = 16
		{3, 8, 9, 4},      // E-D3b: side 8, steps 8
	} {
		g := graphOf(tc.d, tc.side, tc.steps)
		var doms []lattice.Domain
		var walk func(lattice.Domain)
		walk = func(dom lattice.Domain) {
			doms = append(doms, dom)
			if dom.Span() > tc.leafSpan {
				for _, k := range dom.Children() {
					walk(k)
				}
			}
		}
		walk(rootOf(g, g.Bounds()))
		report := func(b *testing.B, start time.Time) {
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*len(doms)), "ns/domain")
		}
		b.Run(fmt.Sprintf("d=%d/surface", tc.d), func(b *testing.B) {
			var bd Boundary
			var s Surface
			start := time.Now()
			for range b.N {
				for _, dom := range doms {
					bd.Compute(g, dom, ByPosition, &s)
				}
			}
			report(b, start)
		})
		b.Run(fmt.Sprintf("d=%d/volume", tc.d), func(b *testing.B) {
			var v volume
			start := time.Now()
			for range b.N {
				for _, dom := range doms {
					v.preboundary(g, dom)
					volumeLiveOut(g, dom)
				}
			}
			report(b, start)
		})
	}
}

// EachDead is the executors' cleanup rule: over a domain's points, and
// over each child's live-out set, it names exactly the points that are
// not the domain's live-outs, in order, at d = 1, 2, 3.
func TestEachDead(t *testing.T) {
	var b Boundary
	for d := 1; d <= 3; d++ {
		g := graphOf(d, 8, 7)
		walkTree(rootOf(g, g.Bounds()), func(dom lattice.Domain) {
			var s, ks Surface
			b.Compute(g, dom, ByPosition, &s)
			live := map[lattice.Point]bool{}
			for _, v := range s.Live {
				live[v] = true
			}
			check := func(pts []lattice.Point) {
				var want, got []lattice.Point
				for _, p := range pts {
					if !live[p] {
						want = append(want, p)
					}
				}
				s.EachDead(pts, func(p lattice.Point) { got = append(got, p) })
				if !slices.Equal(got, want) {
					t.Fatalf("d=%d %v: EachDead named %v, want %v", d, dom, got, want)
				}
			}
			var pts []lattice.Point
			dom.Points(func(p lattice.Point) bool {
				pts = append(pts, p)
				return true
			})
			check(pts)
			for _, kid := range dom.Children() {
				b.Compute(g, kid, ByPosition, &ks)
				check(ks.Live)
			}
		})
	}
}
