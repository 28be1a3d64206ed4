package lattice

import "fmt"

// This file constructs the decompositions shown in Figures 1–4 of the paper
// as executable objects, so their structural claims (piece counts, measure
// ratios, topological validity) can be tested and rendered.

// unboundedExtent bounds the "unclipped" helper clip. It is far larger than
// any domain built in this repository while keeping Volume() overflow-free.
const unboundedExtent = 1 << 20

// UnboundedClip returns a clip large enough to be a no-op for every domain
// used in this repository; it stands in for "no truncation".
func UnboundedClip() Clip {
	return Clip{
		X0: -unboundedExtent, X1: unboundedExtent,
		Y0: -unboundedExtent, Y1: unboundedExtent,
		Z0: -unboundedExtent, Z1: unboundedExtent,
		T0: -unboundedExtent, T1: unboundedExtent,
	}
}

// FigureOnePartition returns the partition of the d = 1 computation domain
// V = [0,n) × [0,n) into five full or truncated diamonds (U1,...,U5),
// ordered topologically, as in Figure 1 of the paper: U3 is a full diamond
// of width n inscribed at the center of V; U1/U2/U4/U5 are the truncated
// corner diamonds. n must be at least 2.
func FigureOnePartition(n int) []Domain {
	if n < 2 {
		panic(fmt.Sprintf("lattice: FigureOnePartition needs n >= 2, got %d", n))
	}
	clip := ClipAll1D(n, n)
	// V in (u, w): u in [0, 2n-1), w in [-(n-1), n). The central diamond
	// is the axis-aligned square of side n centered at (n-1, 0).
	uLo, uHi := 0, 2*n-1
	wLo, wHi := -(n - 1), n
	uc0 := n - 1 - n/2
	uc1 := uc0 + n
	wc0 := -n / 2
	wc1 := wc0 + n
	rect := func(u0, u1, w0, w1 int) Domain {
		return Domain{Dim: 1, P: [3][2]int{{u0, u1}}, M: [3][2]int{{w0, w1}}, Clip: clip}
	}
	pieces := []Domain{
		rect(uLo, uc0, wLo, wHi), // U1: low-u truncation
		rect(uc0, uc1, wLo, wc0), // U2: mid-u, low-w truncation
		rect(uc0, uc1, wc0, wc1), // U3: full central D(n)
		rect(uc0, uc1, wc1, wHi), // U4: mid-u, high-w truncation
		rect(uc1, uHi, wLo, wHi), // U5: high-u truncation
	}
	out := pieces[:0]
	for _, p := range pieces {
		if p.Size() > 0 {
			out = append(out, p)
		}
	}
	return out
}

// GridCell is one diamond of the regular diamond tiling of the plane, with
// its integer grid coordinates in rotated space.
type GridCell struct {
	I, J int // u-index and w-index: u in [I*s, (I+1)*s), w in [J*s+w0, ...)
	D    Domain
}

// mids returns the centers of the cell's u and w ranges.
func (g GridCell) mids() (uMid, wMid float64) {
	u, w := g.D.P[0], g.D.M[0]
	return float64(u[0]+u[1]) / 2, float64(w[0]+w[1]) / 2
}

// CenterX reports the x coordinate of the cell's diamond center,
// x = (u - w)/2 evaluated at the cell center.
func (g GridCell) CenterX() float64 {
	uMid, wMid := g.mids()
	return (uMid - wMid) / 2
}

// CenterT reports the t coordinate of the cell's diamond center.
func (g GridCell) CenterT() float64 {
	uMid, wMid := g.mids()
	return (uMid + wMid) / 2
}

// DiamondGrid tiles the computation domain V = [0,n) × [0,T) with diamonds
// of width s on the regular rotated grid (the brick pattern of Figure 2),
// returning the non-empty cells. The grid is anchored so that cell (0, 0)
// starts at u = 0, w = -(n-1) (the low corner of V's bounding diamond).
// Every vertex of V lies in exactly one cell.
func DiamondGrid(n, t, s int) []GridCell {
	if s < 1 {
		panic(fmt.Sprintf("lattice: DiamondGrid cell width %d < 1", s))
	}
	clip := ClipAll1D(n, t)
	w0 := -(n - 1)
	uSpan := n + t - 1 // u in [0, n+t-2]
	wSpan := n + t - 1 // w in [w0, t-1]
	var cells []GridCell
	for i := 0; i*s < uSpan; i++ {
		for j := 0; j*s < wSpan; j++ {
			d := NewDiamond(i*s, w0+j*s, s, clip)
			if d.Size() > 0 {
				cells = append(cells, GridCell{I: i, J: j, D: d})
			}
		}
	}
	return cells
}

// ZigZagBands distributes the cells of DiamondGrid(n, n, s) among p
// processors by the x coordinate of the diamond centers, reproducing the
// zig-zag band assignment of Figure 2: processor k owns the cells whose
// center falls in the vertical strip [k·n/p, (k+1)·n/p), ordered by
// increasing time. Within a band consecutive diamonds alternate between the
// two diagonal grid columns intersecting the strip, producing the zig-zag.
func ZigZagBands(n, p, s int) [][]GridCell {
	if p < 1 {
		panic(fmt.Sprintf("lattice: ZigZagBands with p = %d < 1", p))
	}
	cells := DiamondGrid(n, n, s)
	bands := make([][]GridCell, p)
	strip := float64(n) / float64(p)
	for _, c := range cells {
		k := int(c.CenterX() / strip)
		if k < 0 {
			k = 0
		}
		if k >= p {
			k = p - 1
		}
		bands[k] = append(bands[k], c)
	}
	// Cells arrive sorted by (I, J); re-sort each band by center time then
	// center x, the execution order along the band.
	for k := range bands {
		b := bands[k]
		for i := 1; i < len(b); i++ {
			for j := i; j > 0; j-- {
				ti, tj := b[j].CenterT(), b[j-1].CenterT()
				if ti < tj || (ti == tj && b[j].CenterX() < b[j-1].CenterX()) {
					b[j], b[j-1] = b[j-1], b[j]
				} else {
					break
				}
			}
		}
	}
	return bands
}

// FigureThreeOctahedron returns the canonical unclipped octahedron P(r)
// with low corner at the origin of (a,b,e,f) space.
func FigureThreeOctahedron(r int) Domain {
	return NewOctahedron(0, 0, 0, 0, r, UnboundedClip())
}

// FigureThreeTetrahedron returns the canonical unclipped tetrahedron W(r)
// (pair-sum offset +r).
func FigureThreeTetrahedron(r int) Domain {
	return NewTetrahedron(r, 0, 0, 0, r, UnboundedClip())
}

// KindCount tallies domains by kind.
func KindCount(doms []Domain) map[Kind]int {
	out := make(map[Kind]int)
	for _, d := range doms {
		out[d.Kind()]++
	}
	return out
}

// FigureFourPartition returns the partition of the d = 2 computation domain
// V = [0,side)² × [0,side) into full or truncated octahedra and tetrahedra,
// ordered topologically, in the spirit of Figure 4 of the paper: one level
// of the separator split of V's bounding octahedron, clipped to V. (The
// paper's figure draws 17 pieces; the split below yields the same kinds of
// pieces — truncated P's and W's around a central full octahedron — with a
// piece count that depends on how ties at the cube faces are drawn. The
// topological-partition property, which is what the simulation needs, is
// verified in tests for both.)
func FigureFourPartition(side int) []Domain {
	if side < 2 {
		panic(fmt.Sprintf("lattice: FigureFourPartition needs side >= 2, got %d", side))
	}
	return Around(2, side, side).Children()
}
