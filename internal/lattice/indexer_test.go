package lattice

import (
	"runtime"
	"testing"
)

// sampleDomains covers all three separator domain shapes, clipped and
// unclipped, including recursion children (whose rotated-coordinate
// origins are away from zero).
func sampleDomains() []Domain {
	var doms []Domain
	d := NewDiamond(0, 0, 16, ClipAll1D(16, 17))
	doms = append(doms, d)
	doms = append(doms, d.Children()...)
	o := FigureThreeOctahedron(8)
	doms = append(doms, o)
	doms = append(doms, o.Children()...)
	b := CentralBox6(4)
	doms = append(doms, b)
	doms = append(doms, b.Children()...)
	return doms
}

func TestIndexerBijection(t *testing.T) {
	for _, dom := range sampleDomains() {
		ix := IndexerFor(dom)
		seen := make(map[int]Point)
		n := 0
		dom.Points(func(p Point) bool {
			n++
			if !ix.Contains(p) {
				t.Fatalf("%v: point %v outside bounding box %v", dom, p, ix.Bounds())
			}
			i := ix.Index(p)
			if i < 0 || i >= ix.Len() {
				t.Fatalf("%v: index %d of %v outside [0, %d)", dom, i, p, ix.Len())
			}
			if q, dup := seen[i]; dup {
				t.Fatalf("%v: points %v and %v collide at index %d", dom, q, p, i)
			}
			seen[i] = p
			if back := ix.Deindex(i); back != p {
				t.Fatalf("%v: Deindex(Index(%v)) = %v", dom, p, back)
			}
			return true
		})
		if n == 0 {
			t.Fatalf("%v: no points enumerated", dom)
		}
		if n != dom.Size() {
			t.Fatalf("%v: enumerated %d points, Size() = %d", dom, n, dom.Size())
		}
	}
}

func TestBoundingClipTight(t *testing.T) {
	// Every face of the bounding box must touch at least one domain point:
	// the box is tight, not merely containing.
	for _, dom := range sampleDomains() {
		c := dom.BoundingClip()
		var hitX0, hitX1, hitT0, hitT1 bool
		dom.Points(func(p Point) bool {
			hitX0 = hitX0 || p.X == c.X0
			hitX1 = hitX1 || p.X == c.X1-1
			hitT0 = hitT0 || p.T == c.T0
			hitT1 = hitT1 || p.T == c.T1-1
			return true
		})
		if !hitX0 || !hitX1 || !hitT0 || !hitT1 {
			t.Errorf("%v: bounding box %v not tight (x0 %v x1 %v t0 %v t1 %v)",
				dom, c, hitX0, hitX1, hitT0, hitT1)
		}
	}
}

func TestAddrTable(t *testing.T) {
	d := NewDiamond(0, 0, 8, UnboundedClip())
	tab := NewAddrTable(IndexerFor(d))
	n := 0
	d.Points(func(p Point) bool {
		if _, ok := tab.Get(p); ok {
			t.Fatalf("fresh table has entry at %v", p)
		}
		tab.Set(p, n)
		n++
		return true
	})
	i := 0
	d.Points(func(p Point) bool {
		a, ok := tab.Get(p)
		if !ok || a != i {
			t.Fatalf("Get(%v) = %d, %v; want %d, true", p, a, ok, i)
		}
		i++
		return true
	})
	d.Points(func(p Point) bool {
		tab.Delete(p)
		if _, ok := tab.Get(p); ok {
			t.Fatalf("entry at %v survives Delete", p)
		}
		return true
	})
	// Reset re-targets the same backing storage to a smaller box.
	small := NewDiamond(0, 0, 4, UnboundedClip())
	tab.Reset(IndexerFor(small))
	small.Points(func(p Point) bool {
		if _, ok := tab.Get(p); ok {
			t.Fatalf("reset table has entry at %v", p)
		}
		return true
	})
}

func TestAddrTableSetPanicsOnNegative(t *testing.T) {
	tab := NewAddrTable(NewIndexer(ClipAll1D(2, 2)))
	defer func() {
		if recover() == nil {
			t.Fatal("Set(p, -1) did not panic")
		}
	}()
	tab.Set(Point{}, -1)
}

// A table over a box above denseSlots is a map keyed by the same index;
// it must answer one Set/Get/Delete sequence exactly as a dense table
// over a box below the bound, at the same points.
func TestAddrTableSparseMatchesDense(t *testing.T) {
	small := ClipAll1D(64, 64)
	big := small
	big.T1 = denseSlots/64 + 64 // same points, a box past the bound
	dense, sparse := NewAddrTable(NewIndexer(small)), NewAddrTable(NewIndexer(big))
	if dense.sparse != nil || sparse.sparse == nil {
		t.Fatalf("representations: dense box sparse=%v, big box sparse=%v", dense.sparse != nil, sparse.sparse != nil)
	}
	var pts []Point
	NewDiamond(0, 0, 32, small).Points(func(p Point) bool {
		pts = append(pts, p)
		return true
	})
	check := func(stage string) {
		t.Helper()
		for _, p := range pts {
			da, dok := dense.Get(p)
			sa, sok := sparse.Get(p)
			if dok != sok || (dok && da != sa) {
				t.Fatalf("%s: Get(%v) = (%d, %v) dense, (%d, %v) sparse", stage, p, da, dok, sa, sok)
			}
		}
	}
	check("fresh")
	for i, p := range pts {
		dense.Set(p, 3*i)
		sparse.Set(p, 3*i)
	}
	check("set")
	for i, p := range pts {
		if i%3 == 0 {
			dense.Delete(p)
			sparse.Delete(p)
		} else if i%3 == 1 {
			dense.Set(p, i)
			sparse.Set(p, i)
		}
	}
	check("mixed")
	if len(sparse.sparse) != len(pts)-(len(pts)+2)/3 {
		t.Fatalf("sparse table holds %d entries, want %d", len(sparse.sparse), len(pts)-(len(pts)+2)/3)
	}
	for _, p := range pts {
		dense.Delete(p)
		sparse.Delete(p)
	}
	check("drained")
	if len(sparse.sparse) != 0 {
		t.Fatalf("drained sparse table holds %d entries", len(sparse.sparse))
	}
	// Reset moves a table between representations.
	sparse.Reset(NewIndexer(small))
	dense.Reset(NewIndexer(big))
	if sparse.sparse != nil || dense.sparse == nil {
		t.Fatal("Reset kept the representation of the old box")
	}
}

// A sparse table's cost follows its entries, not its box: one over a
// 2²⁵-point box allocates next to nothing up front.
func TestAddrTableSparseAllocatesNothingUpFront(t *testing.T) {
	box := ClipAll1D(1<<15, 1<<10)
	if n := NewIndexer(box).Len(); n != 1<<25 {
		t.Fatalf("box holds %d points, want 2^25", n)
	}
	// Measure on one P, as testing.AllocsPerRun does: with a P idle, the
	// world restart in ReadMemStats can start an OS thread, and the
	// runtime's ~5 KB of bookkeeping for it would count here.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := NewAddrTable(NewIndexer(box))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 {
		t.Fatalf("NewAddrTable over 2^25 points allocated %d bytes", grew)
	}
	tab.Set(Point{X: 1<<15 - 1, T: 1<<10 - 1}, 7)
	if a, ok := tab.Get(Point{X: 1<<15 - 1, T: 1<<10 - 1}); !ok || a != 7 {
		t.Fatalf("Get = (%d, %v), want (7, true)", a, ok)
	}
}
