package lattice

// Column is one spatial position's share of a domain: the vertices at
// position Pos (T = 0) for every time Ta..Tb, inclusive.
type Column struct {
	Pos    Point
	Ta, Tb int
}

// ColumnView is the geometry every domain family here shares. A Diamond,
// Box4 or Box6 is its Clip cut by the half-spaces
//
//	t + x_a ∈ [P[a][0], P[a][1])  and  t - x_a ∈ [M[a][0], M[a][1])
//
// for each spatial axis a < Dim, and its points on the other axes sit
// at coordinate 0. Each constraint bounds t by a function of a single
// coordinate, so a spatial position holds one contiguous interval of
// times, and moving one step along an axis moves either end of that
// interval by at most one: the fact the O(surface) boundary
// enumerations in package dag rest on.
type ColumnView struct {
	Dim  int
	P, M [3][2]int
	Clip Clip
}

// Columns implements Domain.
func (d Diamond) Columns() ColumnView {
	return ColumnView{Dim: 1,
		P:    [3][2]int{{d.U0, d.U0 + d.RU}},
		M:    [3][2]int{{d.W0, d.W0 + d.RW}},
		Clip: d.Clip}
}

// Columns implements Domain.
func (o Box4) Columns() ColumnView {
	return ColumnView{Dim: 2,
		P:    [3][2]int{{o.A0, o.A0 + o.RA}, {o.E0, o.E0 + o.RE}},
		M:    [3][2]int{{o.B0, o.B0 + o.RB}, {o.F0, o.F0 + o.RF}},
		Clip: o.Clip}
}

// Columns implements Domain.
func (o Box6) Columns() ColumnView {
	return ColumnView{Dim: 3,
		P:    [3][2]int{{o.A0, o.A0 + o.RA}, {o.E0, o.E0 + o.RE}, {o.G0, o.G0 + o.RG}},
		M:    [3][2]int{{o.B0, o.B0 + o.RB}, {o.F0, o.F0 + o.RF}, {o.H0, o.H0 + o.RH}},
		Clip: o.Clip}
}

// At returns the time interval [ta, tb] of position (x, y, z); the
// column is empty when ta > tb, as it is at every position outside
// Box().
func (v *ColumnView) At(x, y, z int) (ta, tb int) {
	c := [3]int{x, y, z}
	if !v.Clip.Contains(Point{X: x, Y: y, Z: z, T: v.Clip.T0}) {
		return 0, -1
	}
	ta, tb = v.Clip.T0, v.Clip.T1-1
	for a := 0; a < 3; a++ {
		if a >= v.Dim {
			if c[a] != 0 {
				return 0, -1
			}
			continue
		}
		ta = max(ta, v.P[a][0]-c[a], v.M[a][0]+c[a])
		tb = min(tb, v.P[a][1]-1-c[a], v.M[a][1]-1+c[a])
	}
	return ta, tb
}

// Box returns a box holding every non-empty column: its X, Y and Z
// ranges cover the positions, its T range the times. The box is tight
// per axis, not per column; a position inside it may still be empty.
func (v *ColumnView) Box() Clip {
	// 2t = (t + x_a) + (t - x_a) bounds t for every axis at once.
	t0, t1 := v.Clip.T0, v.Clip.T1-1
	for a := 0; a < v.Dim; a++ {
		t0 = max(t0, ceilDiv(v.P[a][0]+v.M[a][0], 2))
		t1 = min(t1, floorDiv(v.P[a][1]-1+v.M[a][1]-1, 2))
	}
	lo := [3]int{v.Clip.X0, v.Clip.Y0, v.Clip.Z0}
	hi := [3]int{v.Clip.X1, v.Clip.Y1, v.Clip.Z1}
	for a := 0; a < 3; a++ {
		if a >= v.Dim {
			lo[a], hi[a] = max(lo[a], 0), min(hi[a], 1)
			continue
		}
		p0, p1, m0, m1 := v.P[a][0], v.P[a][1]-1, v.M[a][0], v.M[a][1]-1
		// x = (t+x) - t and x = t - (t-x), over t in [t0, t1].
		lo[a] = max(lo[a], ceilDiv(p0-m1, 2), p0-t1, t0-m1)
		hi[a] = min(hi[a], floorDiv(p1-m0, 2)+1, p1-t0+1, t1-m0+1)
	}
	return Clip{X0: lo[0], X1: hi[0], Y0: lo[1], Y1: hi[1], Z0: lo[2], Z1: hi[2], T0: t0, T1: t1 + 1}
}
