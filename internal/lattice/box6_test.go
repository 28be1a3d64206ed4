package lattice

import (
	"math"
	"testing"
	"testing/quick"
)

// preds3D is the unbounded d = 3 dag stencil.
func preds3D(p Point) []Point {
	t := p.T - 1
	return []Point{
		{X: p.X, Y: p.Y, Z: p.Z, T: t},
		{X: p.X - 1, Y: p.Y, Z: p.Z, T: t},
		{X: p.X + 1, Y: p.Y, Z: p.Z, T: t},
		{X: p.X, Y: p.Y - 1, Z: p.Z, T: t},
		{X: p.X, Y: p.Y + 1, Z: p.Z, T: t},
		{X: p.X, Y: p.Y, Z: p.Z - 1, T: t},
		{X: p.X, Y: p.Y, Z: p.Z + 1, T: t},
	}
}

func TestBox6SizeMatchesEnumeration(t *testing.T) {
	for _, b := range []Domain{
		Around(3, 4, 4),
		CentralBox6(6),
		box(UnboundedClip(), []int{2, -1, 0, 1, -2, 4}, []int{4, 5, 3, 4, 6, 2}),
	} {
		pts := collect(b)
		if len(pts) != b.Size() {
			t.Errorf("%v: Size() = %d but enumerated %d", b, b.Size(), len(pts))
		}
		for _, p := range pts {
			if !b.Contains(p) {
				t.Errorf("%v: enumerated %v not Contains", b, p)
			}
		}
	}
}

func TestBox6SizeBruteForce(t *testing.T) {
	clip := ClipAll3D(5, 5)
	b := box(clip, []int{1, -3, 0, -2, 2, -4}, []int{6, 5, 7, 4, 5, 8})
	want := 0
	for x := 0; x < 5; x++ {
		for y := 0; y < 5; y++ {
			for z := 0; z < 5; z++ {
				for tt := 0; tt < 5; tt++ {
					if b.Contains(Point{X: x, Y: y, Z: z, T: tt}) {
						want++
					}
				}
			}
		}
	}
	if got := b.Size(); got != want {
		t.Fatalf("Size() = %d, brute force = %d", got, want)
	}
}

func TestBox6AroundCoversV(t *testing.T) {
	for _, st := range [][2]int{{3, 3}, {4, 5}, {2, 7}} {
		side, T := st[0], st[1]
		b := Around(3, side, T)
		if got, want := b.Size(), side*side*side*T; got != want {
			t.Errorf("Around(3,%d,%d).Size() = %d, want %d", side, T, got, want)
		}
	}
}

func TestBox6PointsOrdered(t *testing.T) {
	b := Around(3, 3, 3)
	pts := collect(b)
	for i := 1; i < len(pts); i++ {
		if !pts[i-1].Less(pts[i]) {
			t.Fatalf("points out of order: %v then %v", pts[i-1], pts[i])
		}
	}
}

func TestBox6CentralMeasureScaling(t *testing.T) {
	// The central 4-polytope has measure Θ(R⁴): quadrupling R should
	// scale size by ~256.
	s8 := CentralBox6(8).Size()
	s32 := CentralBox6(32).Size()
	ratio := float64(s32) / float64(s8)
	if ratio < 128 || ratio > 512 {
		t.Errorf("R 8->32 size ratio %v, want ~256 (measure Θ(R⁴))", ratio)
	}
}

func TestBox6PreboundaryExponent(t *testing.T) {
	// Γin(central(R)) = Θ(|U|^(3/4)) — the γ = 3/4 topological separator
	// the paper's conjecture needs.
	for _, r := range []int{8, 16} {
		b := CentralBox6(r)
		bound := make(map[Point]bool)
		b.Points(func(p Point) bool {
			for _, q := range preds3D(p) {
				if !b.Contains(q) {
					bound[q] = true
				}
			}
			return true
		})
		scale := math.Pow(float64(b.Size()), 3.0/4)
		ratio := float64(len(bound)) / scale
		if ratio < 0.4 || ratio > 10 {
			t.Errorf("r=%d: |Γin| = %d, |U|^(3/4) = %g, ratio %g out of range",
				r, len(bound), scale, ratio)
		}
	}
}

func TestBox6CentralDecomposition(t *testing.T) {
	// The d = 3 analog of Figure 3(a): the central polytope splits into
	// 46 children — 10 central analogs and 36 wedges.
	b := CentralBox6(16)
	kids := b.Children()
	central := KindCount(kids)[Octahedron]
	if wedges := len(kids) - central; central != 10 || wedges != 36 {
		t.Errorf("central split: %d central + %d wedges, want 10 + 36", central, wedges)
	}
	checkPartition(t, b, kids, preds3D)
}

func TestBox6RecursiveDecompositionExact(t *testing.T) {
	checkRecursion(t, Around(3, 4, 4), preds3D)
}

// Property: random Box6 children always exactly tile the parent and
// respect dependencies.
func TestPropertyBox6ChildrenPartition(t *testing.T) {
	f := func(a0, b0 int8, r uint8, off uint8) bool {
		span := int(r%8) + 2
		o1 := (int(off%3) - 1) * span
		o2 := (int(off/3%3) - 1) * span
		b := box(UnboundedClip(), []int{int(a0), int(b0), int(a0) - o1, int(b0), int(a0) - o2, int(b0)},
			[]int{span, span, span, span, span, span})
		if b.Size() == 0 {
			return true
		}
		seen := make(map[Point]bool)
		total := 0
		for _, c := range b.Children() {
			ok := true
			c.Points(func(p Point) bool {
				if !b.Contains(p) || seen[p] {
					ok = false
					return false
				}
				seen[p] = true
				total++
				return true
			})
			if !ok {
				return false
			}
		}
		return total == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
