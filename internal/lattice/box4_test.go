package lattice

import (
	"math"
	"testing"
	"testing/quick"
)

// preds2D returns the dag predecessors of a d = 2 vertex: (x', y', t-1)
// where (x', y') is (x, y) or one of its four mesh neighbors.
func preds2D(p Point) []Point {
	if p.T == 0 {
		return nil
	}
	return []Point{
		{X: p.X, Y: p.Y, T: p.T - 1},
		{X: p.X - 1, Y: p.Y, T: p.T - 1},
		{X: p.X + 1, Y: p.Y, T: p.T - 1},
		{X: p.X, Y: p.Y - 1, T: p.T - 1},
		{X: p.X, Y: p.Y + 1, T: p.T - 1},
	}
}

func TestBox4SizeMatchesEnumeration(t *testing.T) {
	clip := ClipAll2D(6, 6)
	for _, b := range []Domain{
		Around(2, 6, 6),
		NewOctahedron(2, -2, 1, -1, 4, clip),
		NewTetrahedron(4, 0, 0, 0, 4, clip),
		box(clip, []int{0, -1, 1, -2}, []int{3, 4, 2, 5}),
	} {
		pts := collect(b)
		if len(pts) != b.Size() {
			t.Errorf("%v: Size() = %d but enumerated %d", b, b.Size(), len(pts))
		}
		for _, p := range pts {
			if !b.Contains(p) {
				t.Errorf("%v: enumerated point %v not Contains", b, p)
			}
		}
	}
}

func TestBox4SizeBruteForce(t *testing.T) {
	clip := ClipAll2D(7, 7)
	b := box(clip, []int{1, -3, 0, -2}, []int{6, 5, 7, 4})
	want := 0
	for x := 0; x < 7; x++ {
		for y := 0; y < 7; y++ {
			for tt := 0; tt < 7; tt++ {
				if b.Contains(Point{X: x, Y: y, T: tt}) {
					want++
				}
			}
		}
	}
	if got := b.Size(); got != want {
		t.Fatalf("Size() = %d, brute force = %d", got, want)
	}
}

func TestBox4AroundCoversV(t *testing.T) {
	for _, st := range [][2]int{{4, 4}, {5, 3}, {2, 6}} {
		side, T := st[0], st[1]
		b := Around(2, side, T)
		if got, want := b.Size(), side*side*T; got != want {
			t.Errorf("Around(2,%d,%d).Size() = %d, want %d", side, T, got, want)
		}
	}
}

func TestBox4PointsOrdered(t *testing.T) {
	b := Around(2, 4, 4)
	pts := collect(b)
	for i := 1; i < len(pts); i++ {
		if !pts[i-1].Less(pts[i]) {
			t.Fatalf("points out of order: %v then %v", pts[i-1], pts[i])
		}
	}
}

func TestOctahedronMeasure(t *testing.T) {
	// |P(r)| -> r³/3 (paper Section 5).
	for _, r := range []int{8, 16, 32, 64} {
		p := FigureThreeOctahedron(r)
		got := float64(p.Size())
		want := math.Pow(float64(r), 3) / 3
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("r=%d: |P| = %g, want ~%g", r, got, want)
		}
	}
}

func TestTetrahedronMeasure(t *testing.T) {
	// |W(r)| -> r³/12 (paper Section 5).
	for _, r := range []int{8, 16, 32, 64} {
		w := FigureThreeTetrahedron(r)
		got := float64(w.Size())
		want := math.Pow(float64(r), 3) / 12
		if math.Abs(got-want)/want > 0.35 {
			t.Errorf("r=%d: |W| = %g, want ~%g", r, got, want)
		}
	}
}

func TestFigure3OctahedronDecomposition(t *testing.T) {
	// Figure 3(a): P(r) splits into 6 P(r/2) and 8 W(r/2).
	p := FigureThreeOctahedron(32)
	kids := p.Children()
	counts := KindCount(kids)
	if counts[Octahedron] != 6 || counts[Tetrahedron] != 8 || counts[Wedge] != 0 {
		t.Fatalf("P(32) children: %d P + %d W + %d wedge, want 6 P + 8 W",
			counts[Octahedron], counts[Tetrahedron], counts[Wedge])
	}
	checkPartition(t, p, kids, preds2D)
	// Measure ratios (paper): |P(r/2)| = |P(r)|/8, |W(r/2)| = |P(r)|/32.
	for _, b := range kids {
		ratio := float64(b.Size()) / float64(p.Size())
		var want float64
		if b.Kind() == Octahedron {
			want = 1.0 / 8
		} else {
			want = 1.0 / 32
		}
		if math.Abs(ratio-want)/want > 0.35 {
			t.Errorf("child %v: size ratio %g, want ~%g", b, ratio, want)
		}
	}
}

func TestFigure3TetrahedronDecomposition(t *testing.T) {
	// Figure 3(b): W(r) splits into 1 P(r/2) and 4 W(r/2).
	w := FigureThreeTetrahedron(32)
	kids := w.Children()
	counts := KindCount(kids)
	if counts[Octahedron] != 1 || counts[Tetrahedron] != 4 || counts[Wedge] != 0 {
		t.Fatalf("W(32) children: %d P + %d W + %d wedge, want 1 P + 4 W",
			counts[Octahedron], counts[Tetrahedron], counts[Wedge])
	}
	checkPartition(t, w, kids, preds2D)
	// Measure ratios (paper): |P(r/2)| = |W(r)|/2, |W(r/2)| = |W(r)|/8.
	for _, b := range kids {
		ratio := float64(b.Size()) / float64(w.Size())
		var want float64
		if b.Kind() == Octahedron {
			want = 1.0 / 2
		} else {
			want = 1.0 / 8
		}
		if math.Abs(ratio-want)/want > 0.35 {
			t.Errorf("child %v: size ratio %g, want ~%g", b, ratio, want)
		}
	}
}

func TestBox4PreboundaryScaling(t *testing.T) {
	// Γin(P(r)) = Θ(r²) = Θ(|P|^(2/3)) (paper Section 5).
	for _, r := range []int{8, 16, 32} {
		p := FigureThreeOctahedron(r)
		bound := make(map[Point]bool)
		p.Points(func(pt Point) bool {
			for _, q := range preds2D(pt) {
				if !p.Contains(q) {
					bound[q] = true
				}
			}
			return true
		})
		got := float64(len(bound))
		scale := math.Pow(float64(p.Size()), 2.0/3)
		ratio := got / scale
		if ratio < 0.5 || ratio > 8 {
			t.Errorf("r=%d: |Γin| = %g, |P|^(2/3) = %g, ratio %g out of range",
				r, got, scale, ratio)
		}
	}
}

func TestFigureFourPartition(t *testing.T) {
	for _, side := range []int{4, 8, 16} {
		pieces := FigureFourPartition(side)
		if len(pieces) == 0 {
			t.Fatalf("side=%d: empty partition", side)
		}
		counts := KindCount(pieces)
		hasP, hasW := counts[Octahedron] > 0, counts[Tetrahedron] > 0
		checkPartition(t, Around(2, side, side), pieces, preds2D)
		if !hasP || !hasW {
			t.Errorf("side=%d: partition should mix octahedra and tetrahedra (P:%v W:%v)",
				side, hasP, hasW)
		}
	}
}

func TestBox4RecursiveDecompositionExact(t *testing.T) {
	checkRecursion(t, Around(2, 6, 6), preds2D)
}

func TestNewOctahedronPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched pair sums did not panic")
		}
	}()
	NewOctahedron(0, 0, 0, 1, 4, UnboundedClip())
}

func TestNewTetrahedronPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong offset did not panic")
		}
	}()
	NewTetrahedron(1, 0, 0, 0, 4, UnboundedClip())
}

func TestKindString(t *testing.T) {
	if Octahedron.String() != "P" || Tetrahedron.String() != "W" || Wedge.String() != "wedge" {
		t.Fatal("Kind.String mismatch")
	}
}

// Property: Box4 children always exactly partition the parent and respect
// dependencies, for random geometry.
func TestPropertyBox4ChildrenPartition(t *testing.T) {
	f := func(a0, b0 int8, r uint8) bool {
		span := int(r%12) + 2
		off := 0
		if r%2 == 1 {
			off = span // tetrahedron
		}
		b := box(UnboundedClip(), []int{int(a0), int(b0), int(a0) - off, int(b0)}, []int{span, span, span, span})
		if b.Size() == 0 {
			return true
		}
		seen := make(map[Point]int)
		total := 0
		for i, c := range b.Children() {
			ok := true
			c.Points(func(p Point) bool {
				if !b.Contains(p) {
					ok = false
					return false
				}
				if _, dup := seen[p]; dup {
					ok = false
					return false
				}
				seen[p] = i
				total++
				return true
			})
			if !ok {
				return false
			}
		}
		if total != b.Size() {
			return false
		}
		for p, i := range seen {
			for _, q := range preds2D(p) {
				if j, in := seen[q]; in && j > i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
