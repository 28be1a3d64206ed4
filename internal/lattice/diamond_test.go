package lattice

import (
	"math"
	"testing"
	"testing/quick"
)

// preds1D returns the dag predecessors of a d = 1 vertex (Definition 3):
// (x+δ, t-1) for δ in {-1, 0, +1}, unrestricted by machine bounds (the
// domain clip handles those).
func preds1D(p Point) []Point {
	if p.T == 0 {
		return nil
	}
	return []Point{
		{X: p.X - 1, T: p.T - 1},
		{X: p.X, T: p.T - 1},
		{X: p.X + 1, T: p.T - 1},
	}
}

// box is the domain with the given range corners and side lengths, both
// listed P[0], M[0], P[1], M[1], P[2], M[2]; its dimension is half their
// number.
func box(clip Clip, corner, sides []int) Domain {
	d := Domain{Dim: len(corner) / 2, Clip: clip}
	for r, lo := range corner {
		if r%2 == 0 {
			d.P[r/2] = [2]int{lo, lo + sides[r]}
		} else {
			d.M[r/2] = [2]int{lo, lo + sides[r]}
		}
	}
	return d
}

// collect returns all points of a domain.
func collect(d Domain) []Point {
	var pts []Point
	d.Points(func(p Point) bool {
		pts = append(pts, p)
		return true
	})
	return pts
}

func TestDiamondSizeMatchesEnumeration(t *testing.T) {
	clip := ClipAll1D(8, 8)
	for _, d := range []Domain{
		NewDiamond(0, -7, 15, clip),
		NewDiamond(3, -2, 5, clip),
		NewDiamond(2, 0, 1, clip),
		NewDiamond(0, 0, 0, clip),
		box(clip, []int{1, -3}, []int{4, 7}),
	} {
		pts := collect(d)
		if len(pts) != d.Size() {
			t.Errorf("%v: Size() = %d but enumerated %d", d, d.Size(), len(pts))
		}
		for _, p := range pts {
			if !d.Contains(p) {
				t.Errorf("%v: enumerated point %v not Contains", d, p)
			}
		}
	}
}

func TestDiamondSizeBruteForce(t *testing.T) {
	clip := ClipAll1D(10, 10)
	d := box(clip, []int{2, -5}, []int{9, 6})
	want := 0
	for x := 0; x < 10; x++ {
		for tt := 0; tt < 10; tt++ {
			if d.Contains(Point{X: x, T: tt}) {
				want++
			}
		}
	}
	if got := d.Size(); got != want {
		t.Fatalf("Size() = %d, brute force = %d", got, want)
	}
}

func TestDiamondPointsAreTopologicallyOrdered(t *testing.T) {
	d := Around(1, 6, 6)
	pts := collect(d)
	for i := 1; i < len(pts); i++ {
		if !pts[i-1].Less(pts[i]) {
			t.Fatalf("points out of order at %d: %v then %v", i, pts[i-1], pts[i])
		}
	}
}

func TestDiamondAroundCoversV(t *testing.T) {
	for _, nt := range [][2]int{{4, 4}, {5, 7}, {1, 3}, {8, 1}} {
		n, T := nt[0], nt[1]
		d := Around(1, n, T)
		if got, want := d.Size(), n*T; got != want {
			t.Errorf("Around(1,%d,%d).Size() = %d, want %d", n, T, got, want)
		}
		// Every machine vertex is contained.
		for x := 0; x < n; x++ {
			for tt := 0; tt < T; tt++ {
				if !d.Contains(Point{X: x, T: tt}) {
					t.Errorf("Around(1,%d,%d) misses (%d,%d)", n, T, x, tt)
				}
			}
		}
	}
}

// checkPartition verifies children are an exact, topologically ordered
// partition of the parent.
func checkPartition(t *testing.T, parent Domain, children []Domain, preds func(Point) []Point) {
	t.Helper()
	seen := make(map[Point]int) // point -> child index
	total := 0
	for i, c := range children {
		c.Points(func(p Point) bool {
			if !parent.Contains(p) {
				t.Fatalf("child %d point %v outside parent %v", i, p, parent)
			}
			if j, dup := seen[p]; dup {
				t.Fatalf("point %v in both child %d and %d", p, j, i)
			}
			seen[p] = i
			total++
			return true
		})
	}
	if total != parent.Size() {
		t.Fatalf("children cover %d points, parent has %d", total, parent.Size())
	}
	// Topological: a predecessor inside the parent must be in the same or
	// an earlier child (Definition 4).
	for p, i := range seen {
		for _, q := range preds(p) {
			if j, in := seen[q]; in && j > i {
				t.Fatalf("dependency violation: %v (child %d) depends on %v (child %d)", p, i, q, j)
			}
		}
	}
}

func TestDiamondChildrenPartition(t *testing.T) {
	clip := ClipAll1D(16, 16)
	for _, d := range []Domain{
		NewDiamond(4, -4, 8, clip),
		NewDiamond(0, -15, 31, clip),
		NewDiamond(3, -3, 7, clip), // odd width
		box(clip, []int{1, -5}, []int{6, 9}),
	} {
		if d.Size() == 0 {
			t.Fatalf("test domain %v empty", d)
		}
		checkPartition(t, d, d.Children(), preds1D)
	}
}

func TestDiamondChildrenSizeBound(t *testing.T) {
	// For an unclipped even square diamond, each child has exactly 1/4 of
	// the parent's points (the paper's δ = 1/4 separator).
	d := NewDiamond(0, 0, 64, UnboundedClip())
	kids := d.Children()
	if len(kids) != 4 {
		t.Fatalf("got %d children, want 4", len(kids))
	}
	for _, k := range kids {
		if got, want := k.Size(), d.Size()/4; got != want {
			t.Errorf("child %v size %d, want %d", k, got, want)
		}
	}
}

func TestDiamondAtomic(t *testing.T) {
	d := NewDiamond(0, 0, 1, UnboundedClip())
	if d.Children() != nil {
		t.Fatalf("width-1 diamond should be atomic, got %v", d.Children())
	}
	if d.Size() != 1 {
		// [0,1)x[0,1): only u=w=0, parity ok: point (0,0).
		t.Fatalf("width-1 diamond size %d, want 1", d.Size())
	}
}

func TestDiamondRecursiveDecompositionExact(t *testing.T) {
	checkRecursion(t, Around(1, 12, 12), preds1D)
}

// checkRecursion fully recurses d and checks that the leaf order is a
// topological order of the whole domain with exact coverage.
func checkRecursion(t *testing.T, d Domain, preds func(Point) []Point) {
	t.Helper()
	var leaves []Point
	var rec func(dom Domain)
	rec = func(dom Domain) {
		kids := dom.Children()
		if kids == nil {
			dom.Points(func(p Point) bool {
				leaves = append(leaves, p)
				return true
			})
			return
		}
		for _, k := range kids {
			rec(k)
		}
	}
	rec(d)
	if len(leaves) != d.Size() {
		t.Fatalf("recursion yields %d points, want %d", len(leaves), d.Size())
	}
	pos := make(map[Point]int, len(leaves))
	for i, p := range leaves {
		if _, dup := pos[p]; dup {
			t.Fatalf("duplicate leaf %v", p)
		}
		pos[p] = i
	}
	for p, i := range pos {
		for _, q := range preds(p) {
			if j, in := pos[q]; in && j > i {
				t.Fatalf("leaf order violates dependency: %v at %d needs %v at %d", p, i, q, j)
			}
		}
	}
}

// Preboundary of an unclipped D(r) is at most ~2r (paper: Γin(D(r)) <= 2r).
func TestDiamondPreboundarySize(t *testing.T) {
	for _, r := range []int{8, 16, 32, 64} {
		d := NewDiamond(0, 0, r, UnboundedClip())
		bound := make(map[Point]bool)
		d.Points(func(p Point) bool {
			for _, q := range preds1D(p) {
				if !d.Contains(q) {
					bound[q] = true
				}
			}
			return true
		})
		if got, max := len(bound), 2*r+2; got > max {
			t.Errorf("r=%d: preboundary %d exceeds 2r+2 = %d", r, got, max)
		}
		if got, min := len(bound), r; got < min {
			t.Errorf("r=%d: preboundary %d suspiciously small (< r)", r, got)
		}
	}
}

func TestFigureOnePartition(t *testing.T) {
	for _, n := range []int{4, 8, 9, 16} {
		pieces := FigureOnePartition(n)
		if len(pieces) != 5 {
			t.Errorf("n=%d: got %d pieces, want 5", n, len(pieces))
		}
		checkPartition(t, Around(1, n, n), pieces, preds1D)
		// The central piece is the full diamond D(n): measure ~ n²/2.
		central := pieces[2]
		ratio := float64(central.Size()) / (float64(n) * float64(n) / 2)
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("n=%d: central diamond size %d, want ~n²/2 = %g (ratio %g)",
				n, central.Size(), float64(n*n)/2, ratio)
		}
	}
}

func TestDiamondGridCoversV(t *testing.T) {
	for _, tc := range [][3]int{{8, 8, 2}, {8, 8, 3}, {10, 6, 4}, {5, 5, 1}} {
		n, T, s := tc[0], tc[1], tc[2]
		cells := DiamondGrid(n, T, s)
		seen := make(map[Point]bool)
		total := 0
		for _, c := range cells {
			c.D.Points(func(p Point) bool {
				if seen[p] {
					t.Fatalf("n=%d T=%d s=%d: duplicate point %v", n, T, s, p)
				}
				seen[p] = true
				total++
				return true
			})
		}
		if total != n*T {
			t.Errorf("n=%d T=%d s=%d: grid covers %d points, want %d", n, T, s, total, n*T)
		}
	}
}

func TestZigZagBandsCoverAllCells(t *testing.T) {
	n, p, s := 16, 4, 4
	bands := ZigZagBands(n, p, s)
	if len(bands) != p {
		t.Fatalf("got %d bands, want %d", len(bands), p)
	}
	total := 0
	for k, b := range bands {
		for i, c := range b {
			total += c.D.Size()
			if i > 0 && c.CenterT() < b[i-1].CenterT() {
				t.Errorf("band %d not time-ordered at cell %d", k, i)
			}
		}
	}
	if total != n*n {
		t.Errorf("bands cover %d points, want %d", total, n*n)
	}
}

// Property: Size counts the enumerated point set, Points enumerates it in
// strictly ascending (T, X, Y, Z) order, and Contains agrees with
// membership in it, at d = 1 on square-ish unclipped rectangles and at
// d = 2 and 3 on boxes with unequal sides, disagreeing pair sums and
// clips inside the machine.
func TestPropertyDiamondContainsMatchesPoints(t *testing.T) {
	f := func(u0, w0 int8, r uint8) bool {
		d := box(UnboundedClip(), []int{int(u0), int(w0)}, []int{int(r % 16), int(r%16) + 1})
		set, ok := pointSet(d)
		if !ok {
			return false
		}
		// Probe the bounding region around the rectangle.
		for x := -20; x <= 40; x += 3 {
			for tt := -20; tt <= 40; tt += 3 {
				p := Point{X: x, T: tt}
				if d.Contains(p) != set[p] {
					return false
				}
			}
		}
		return containsMatches(d, set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	nonEmpty := 0
	g := func(d3 bool, center [4]uint8, back, sides [6]uint8, cut [8]uint8) bool {
		dim, side, clip := 2, 8, ClipAll2D(8, 8)
		if d3 {
			dim, side, clip = 3, 6, ClipAll3D(6, 6)
		}
		// Each bound of the clip moves in by up to 2 on the mesh's axes
		// and on time.
		lo := []*int{&clip.X0, &clip.Y0, &clip.Z0, &clip.T0}
		hi := []*int{&clip.X1, &clip.Y1, &clip.Z1, &clip.T1}
		for a := range 4 {
			if a < dim || a == 3 {
				*lo[a] += int(cut[2*a] % 3)
				*hi[a] -= int(cut[2*a+1] % 3)
			}
		}
		// Each range starts up to 5 below the value of t ± x_a at a
		// drawn machine point, so the pair sums disagree by up to 10,
		// and is 1 to 12 long.
		tc := int(center[3]) % side
		var c, n []int
		for r := range 2 * dim {
			x := int(center[r/2]) % side
			if r%2 == 1 {
				x = -x
			}
			c, n = append(c, tc+x-int(back[r]%6)), append(n, int(sides[r]%12)+1)
		}
		d := box(clip, c, n)
		set, ok := pointSet(d)
		if len(set) > 0 {
			nonEmpty++
		}
		return ok && containsMatches(d, set)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if nonEmpty < 100 {
		t.Fatalf("only %d of 300 drawn d = 2, 3 boxes hold a point", nonEmpty)
	}
}

// pointSet returns d's enumerated points as a set, and whether Points
// enumerated them in strictly ascending order and Size counts them.
func pointSet(d Domain) (map[Point]bool, bool) {
	set := make(map[Point]bool)
	var prev Point
	ok := true
	d.Points(func(p Point) bool {
		ok = ok && (len(set) == 0 || prev.Less(p))
		prev, set[p] = p, true
		return ok
	})
	return set, ok && len(set) == d.Size()
}

// containsMatches reports whether Contains agrees with membership in set
// over d's bounding box inflated by 1 on every axis.
func containsMatches(d Domain, set map[Point]bool) bool {
	c := d.BoundingClip()
	for tt := c.T0 - 1; tt <= c.T1; tt++ {
		for x := c.X0 - 1; x <= c.X1; x++ {
			for y := c.Y0 - 1; y <= c.Y1; y++ {
				for z := c.Z0 - 1; z <= c.Z1; z++ {
					p := Point{X: x, Y: y, Z: z, T: tt}
					if d.Contains(p) != set[p] {
						return false
					}
				}
			}
		}
	}
	return true
}

// Property: the measure of an unclipped D(r) tends to r²/2.
func TestDiamondMeasureScaling(t *testing.T) {
	for _, r := range []int{16, 64, 256} {
		d := NewDiamond(0, 0, r, UnboundedClip())
		got := float64(d.Size())
		want := float64(r) * float64(r) / 2
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("r=%d: |D| = %g, want ~%g", r, got, want)
		}
	}
}
