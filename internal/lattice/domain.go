package lattice

import "fmt"

// Domain is a convex set of vertices of the computation dag of the
// Dim-dimensional mesh, Dim in 1..3: the lattice points of Clip cut, on
// each spatial axis a < Dim, by the half-spaces
//
//	t + x_a ∈ [P[a][0], P[a][1])  and  t - x_a ∈ [M[a][0], M[a][1]),
//
// with the coordinates of the axes a >= Dim pinned at 0. P and M are
// zero at a >= Dim, so equal domains are equal values.
//
// Every dag arc is non-decreasing in each t ± x_a, so halving every
// range yields an ordered topological partition (Children). The paper's
// domains are the equal-sided cases: at d = 1 the diamond D(r) of
// Section 4.1; at d = 2 the octahedron P(R) (equal pair sums
// P[a][0]+M[a][0]) and the tetrahedron W(R) (pair sums offset by R) of
// Section 5; at d = 3 the four-dimensional separator of the paper's
// conclusions, whose central polytope (all pair sums equal) has measure
// Θ(R⁴) and preboundary Θ(R³) = Θ(|U|^(3/4)). Rectangles, wedges and
// clipped instances arise from integer halving and from the machine's
// boundary, and keep the partition property.
//
// Each constraint bounds t by a function of a single coordinate, so a
// spatial position holds one contiguous interval of times (At), and a
// unit step along an axis moves either end of that interval by at most
// one: the fact the O(surface) boundary enumeration in package dag rests
// on.
type Domain struct {
	Dim  int
	P, M [3][2]int
	Clip Clip
}

// Column is one spatial position's share of a domain: the vertices at
// position Pos (T = 0) for every time Ta..Tb, inclusive.
type Column struct {
	Pos    Point
	Ta, Tb int
}

// Kind classifies a domain by its pair-sum offsets (Offsets).
type Kind int

const (
	// Octahedron is the paper's P domain and its d = 3 analog, the
	// central polytope: every pair sum equal.
	Octahedron Kind = iota
	// Tetrahedron is the paper's W domain: every pair-sum offset 0 or
	// ±Span, not all 0.
	Tetrahedron
	// Wedge is any other offset (arises only from uneven integer splits
	// or clipping; behaves like a tetrahedron).
	Wedge
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Octahedron:
		return "P"
	case Tetrahedron:
		return "W"
	default:
		return "wedge"
	}
}

// square returns the dim-dimensional domain of equal sides r whose
// ranges start at lo, listed P[0], M[0], P[1], M[1], P[2], M[2]. It
// panics if r < 0.
func square(dim, r int, clip Clip, lo ...int) Domain {
	if r < 0 {
		panic(fmt.Sprintf("lattice: negative span %d", r))
	}
	d := Domain{Dim: dim, Clip: clip}
	for a := 0; a < dim; a++ {
		d.P[a] = [2]int{lo[2*a], lo[2*a] + r}
		d.M[a] = [2]int{lo[2*a+1], lo[2*a+1] + r}
	}
	return d
}

// Around returns the smallest central domain covering the full
// computation domain V = [0,side)^d × [0,t) of the side^d mesh (the
// side-node line at d = 1) run for t steps, clipped to V. At d = 2 and 3
// the span is padded to even, so halving produces equal-sided children
// whose Kind is exact; the padding is clipped away.
func Around(d, side, t int) Domain {
	// t + x_a ranges over [0, t-1 + side-1] and t - x_a over
	// [-(side-1), t-1]: both of extent side+t-2.
	r := max(side+t-1, 1)
	if d > 1 {
		r += r & 1
	}
	clip := ClipAll3D(side, t)
	switch d {
	case 1:
		clip = ClipAll1D(side, t)
	case 2:
		clip = ClipAll2D(side, t)
	}
	return square(d, r, clip, 0, 1-side, 0, 1-side, 0, 1-side)
}

// NewDiamond returns the square diamond D(r) (d = 1) whose
// (t+x, t-x) square has its low corner at (u0, w0), clipped to clip. It
// panics if r < 0.
func NewDiamond(u0, w0, r int, clip Clip) Domain { return square(1, r, clip, u0, w0) }

// NewOctahedron returns the octahedron P(r) (d = 2) whose
// (t+x, t-x, t+y, t-y) box has low corner (a0, b0, e0, f0); it panics
// unless a0+b0 == e0+f0 and r >= 0.
func NewOctahedron(a0, b0, e0, f0, r int, clip Clip) Domain {
	if a0+b0 != e0+f0 {
		panic(fmt.Sprintf("lattice: octahedron pair sums differ: %d vs %d", a0+b0, e0+f0))
	}
	return square(2, r, clip, a0, b0, e0, f0)
}

// NewTetrahedron returns the tetrahedron W(r) (d = 2) whose
// (t+x, t-x, t+y, t-y) box has low corner (a0, b0, e0, f0); it panics
// unless the pair sums are offset by exactly r and r >= 0.
func NewTetrahedron(a0, b0, e0, f0, r int, clip Clip) Domain {
	if off := a0 + b0 - (e0 + f0); off != r && off != -r {
		panic(fmt.Sprintf("lattice: tetrahedron pair-sum offset %d, want ±%d", off, r))
	}
	return square(2, r, clip, a0, b0, e0, f0)
}

// CentralBox6 returns the canonical unclipped d = 3 central polytope of
// span r (all pair sums equal, low corner at the origin of its six
// rotated coordinates).
func CentralBox6(r int) Domain { return square(3, r, UnboundedClip(), 0, 0, 0, 0, 0, 0) }

// Span reports the largest unclipped side, the paper's diamond width or
// octahedron diameter r.
func (d Domain) Span() int {
	s := d.P[0][1] - d.P[0][0]
	for a := 0; a < d.Dim; a++ {
		s = max(s, d.P[a][1]-d.P[a][0], d.M[a][1]-d.M[a][0])
	}
	return s
}

// Offsets reports the pair-sum offsets (P[0][0]+M[0][0]) -
// (P[a][0]+M[a][0]) of the axes a = 1, 2; an offset past Dim-1 is 0.
func (d Domain) Offsets() (off [2]int) {
	for a := 1; a < d.Dim; a++ {
		off[a-1] = d.P[0][0] + d.M[0][0] - (d.P[a][0] + d.M[a][0])
	}
	return off
}

// Kind classifies the domain; meaningful for equal-sided domains at
// d >= 2.
func (d Domain) Kind() Kind {
	k, s := Octahedron, d.Span()
	for _, off := range d.Offsets() {
		switch off {
		case 0:
		case s, -s:
			k = Tetrahedron
		default:
			return Wedge
		}
	}
	return k
}

// String describes the domain.
func (d Domain) String() string {
	return fmt.Sprintf("D%d(P=%v M=%v)", d.Dim, d.P[:d.Dim], d.M[:d.Dim])
}

// Contains reports whether p is a lattice point of the domain.
func (d Domain) Contains(p Point) bool {
	if !d.Clip.Contains(p) {
		return false
	}
	x := [3]int{p.X, p.Y, p.Z}
	for a := range 3 {
		if a >= d.Dim {
			if x[a] != 0 {
				return false
			}
			continue
		}
		if u, w := p.T+x[a], p.T-x[a]; u < d.P[a][0] || u >= d.P[a][1] || w < d.M[a][0] || w >= d.M[a][1] {
			return false
		}
	}
	return true
}

// tRange returns the inclusive range of times the domain can hold:
// 2t = (t + x_a) + (t - x_a) bounds t on every axis, and the clip bounds
// it too.
func (d *Domain) tRange() (tmin, tmax int) {
	tmin, tmax = d.Clip.T0, d.Clip.T1-1
	for a := 0; a < d.Dim; a++ {
		tmin = max(tmin, ceilDiv(d.P[a][0]+d.M[a][0], 2))
		tmax = min(tmax, floorDiv(d.P[a][1]-1+d.M[a][1]-1, 2))
	}
	return tmin, tmax
}

// base returns the clip's x, y and z ranges with the axes a >= Dim cut
// to coordinate 0: the bounds every layer starts from.
func (d *Domain) base() (lo, hi [3]int) {
	c := &d.Clip
	lo, hi = [3]int{c.X0, c.Y0, c.Z0}, [3]int{c.X1, c.Y1, c.Z1}
	for a := d.Dim; a < 3; a++ {
		lo[a], hi[a] = max(lo[a], 0), min(hi[a], 1)
	}
	return lo, hi
}

// layer narrows base's bounds lo, hi to the half-open range of each
// spatial coordinate at time t; the layer's points are their product.
func (d *Domain) layer(t int, lo, hi [3]int) ([3]int, [3]int) {
	for a := 0; a < d.Dim; a++ {
		lo[a] = max(lo[a], d.P[a][0]-t, t-d.M[a][1]+1)
		hi[a] = min(hi[a], d.P[a][1]-t, t-d.M[a][0]+1)
	}
	return lo, hi
}

// Size reports the exact number of lattice points, in O(span) time.
func (d Domain) Size() int {
	n := 0
	lo0, hi0 := d.base()
	tmin, tmax := d.tRange()
	for t := tmin; t <= tmax; t++ {
		if lo, hi := d.layer(t, lo0, hi0); hi[0] > lo[0] && hi[1] > lo[1] && hi[2] > lo[2] {
			n += (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])
		}
	}
	return n
}

// empty reports whether Size() == 0, stopping at the first non-empty
// layer.
func (d *Domain) empty() bool {
	lo0, hi0 := d.base()
	tmin, tmax := d.tRange()
	for t := tmin; t <= tmax; t++ {
		if lo, hi := d.layer(t, lo0, hi0); hi[0] > lo[0] && hi[1] > lo[1] && hi[2] > lo[2] {
			return false
		}
	}
	return true
}

// Points enumerates the lattice points in ascending (T, X, Y, Z) order,
// a topological order of the dag, stopping early if yield returns false.
func (d Domain) Points(yield func(Point) bool) {
	var p Point
	axis := [3]*int{&p.X, &p.Y, &p.Z}
	last := d.Dim - 1
	in := axis[last]
	lo0, hi0 := d.base()
	tmin, tmax := d.tRange()
	for p.T = tmin; p.T <= tmax; p.T++ {
		lo, hi := d.layer(p.T, lo0, hi0)
		if hi[0] <= lo[0] || hi[1] <= lo[1] || hi[2] <= lo[2] {
			continue
		}
		p.X, p.Y, p.Z = lo[0], lo[1], lo[2]
		for {
			// One row of the last axis per pass, then the axes before it
			// step like an odometer; the axes past it hold 0.
			for v, h := lo[last], hi[last]; v < h; v++ {
				if *in = v; !yield(p) {
					return
				}
			}
			a := last - 1
			for ; a >= 0; a-- {
				if *axis[a]++; *axis[a] < hi[a] {
					break
				}
				*axis[a] = lo[a]
			}
			if a < 0 {
				break
			}
		}
	}
}

// Children returns the ordered topological partition obtained by halving
// every range (a range shorter than 2 stays whole) and keeping the
// non-empty combinations, in lexicographic order of the half indices of
// P[0], M[0], P[1], M[1], P[2], M[2]. Lexicographic order linearly
// extends the componentwise order, and dag arcs never decrease any
// t ± x_a, so every dependency of a child lies in an earlier child or
// outside the parent: Definition 4 of the paper. An equal-sided
// power-of-two diamond splits into the paper's four D(r/2), an
// octahedron into 6 P + 8 W and a tetrahedron into 1 P + 4 W (Figure 3),
// and the d = 3 central polytope into 10 central polytopes and 36
// wedges. Returns nil when no range can be split.
func (d Domain) Children() []Domain {
	// part[r] holds range r's halves, r = 2a for P[a] and 2a+1 for M[a];
	// parts[r] is how many it has.
	var part [6][2][2]int
	var parts [6]int
	split := false
	for r := 0; r < 2*d.Dim; r++ {
		rg := d.P[r/2]
		if r%2 == 1 {
			rg = d.M[r/2]
		}
		if rg[1]-rg[0] < 2 {
			part[r][0], parts[r] = rg, 1
			continue
		}
		h := rg[0] + (rg[1]-rg[0])/2
		part[r], parts[r] = [2][2]int{{rg[0], h}, {h, rg[1]}}, 2
		split = true
	}
	if !split {
		return nil
	}
	// Combination i takes half (i >> (2·Dim-1-r)) & 1 of range r, so
	// ascending i is lexicographic order.
	child := func(i int) (Domain, bool) {
		c := Domain{Dim: d.Dim, Clip: d.Clip}
		for r := 0; r < 2*d.Dim; r++ {
			h := i >> (2*d.Dim - 1 - r) & 1
			if h >= parts[r] {
				return c, false
			}
			if r%2 == 0 {
				c.P[r/2] = part[r][h]
			} else {
				c.M[r/2] = part[r][h]
			}
		}
		return c, true
	}
	var keep uint64
	n := 0
	for i := 0; i < 1<<(2*d.Dim); i++ {
		if c, ok := child(i); ok && !c.empty() {
			keep |= 1 << i
			n++
		}
	}
	out := make([]Domain, 0, n)
	for i := 0; i < 1<<(2*d.Dim); i++ {
		if keep&(1<<i) != 0 {
			c, _ := child(i)
			out = append(out, c)
		}
	}
	return out
}

// At returns the time interval [ta, tb] of position (x, y, z); the
// column is empty when ta > tb, as it is at every position outside
// Box().
func (d Domain) At(x, y, z int) (ta, tb int) {
	c := [3]int{x, y, z}
	if !d.Clip.Contains(Point{X: x, Y: y, Z: z, T: d.Clip.T0}) {
		return 0, -1
	}
	ta, tb = d.Clip.T0, d.Clip.T1-1
	for a := range 3 {
		if a >= d.Dim {
			if c[a] != 0 {
				return 0, -1
			}
			continue
		}
		ta = max(ta, d.P[a][0]-c[a], d.M[a][0]+c[a])
		tb = min(tb, d.P[a][1]-1-c[a], d.M[a][1]-1+c[a])
	}
	return ta, tb
}

// Box returns a box holding every non-empty column: its X, Y and Z
// ranges cover the positions, its T range the times. The box is tight
// per axis, not per column; a position inside it may still be empty.
func (d Domain) Box() Clip {
	t0, t1 := d.tRange()
	lo, hi := d.base()
	for a := 0; a < d.Dim; a++ {
		p0, p1, m0, m1 := d.P[a][0], d.P[a][1]-1, d.M[a][0], d.M[a][1]-1
		// x = (t+x) - t and x = t - (t-x), over t in [t0, t1].
		lo[a] = max(lo[a], ceilDiv(p0-m1, 2), p0-t1, t0-m1)
		hi[a] = min(hi[a], floorDiv(p1-m0, 2)+1, p1-t0+1, t1-m0+1)
	}
	return Clip{X0: lo[0], X1: hi[0], Y0: lo[1], Y1: hi[1], Z0: lo[2], Z1: hi[2], T0: t0, T1: t1 + 1}
}

// BoundingClip returns a finite box containing every lattice point of
// the domain: the box the rotated ranges span, intersected with the
// clip. It is finite even under UnboundedClip, because the rotated
// ranges bound every machine coordinate. It is looser than Box, and the
// subtree memo's canonical clip is cut from it, so its formula is part
// of every memo key.
func (d Domain) BoundingClip() Clip {
	lo, hi := [3]int{}, [3]int{1, 1, 1}
	t0 := ceilDiv(d.P[0][0]+d.M[0][0], 2)
	t1 := floorDiv(d.P[0][1]-1+d.M[0][1]-1, 2) + 1
	for a := 0; a < d.Dim; a++ {
		p0, p1, m0, m1 := d.P[a][0], d.P[a][1]-1, d.M[a][0], d.M[a][1]-1
		// x = (u-w)/2 and t = (u+w)/2 over u = t+x, w = t-x.
		lo[a], hi[a] = ceilDiv(p0-m1, 2), floorDiv(p1-m0, 2)+1
		t0, t1 = max(t0, ceilDiv(p0+m0, 2)), min(t1, floorDiv(p1+m1, 2)+1)
	}
	c := Clip{X0: lo[0], X1: hi[0], Y0: lo[1], Y1: hi[1], Z0: lo[2], Z1: hi[2], T0: t0, T1: t1}
	return c.Intersect(d.Clip)
}
