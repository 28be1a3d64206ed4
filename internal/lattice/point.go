// Package lattice implements the geometric machinery of Bilardi & Preparata
// (SPAA 1995): the convex lattice domains of the computation dags of the
// d-dimensional mesh for d = 1, 2, 3 — diamonds for d = 1, octahedra and
// tetrahedra for d = 2, and the four-dimensional separator the paper's
// conclusions ask for at d = 3 — together with their ordered topological
// partitions (Figures 1–4 of the paper) used by the topological-separator
// simulation technique. One type, Domain, is all of them, with the mesh
// dimension a field of the value.
//
// # Rotated coordinates
//
// The computation dag of a T-step run of the linear array M1(n,n,1) has
// vertices (x, t) with arcs (x', t-1) -> (x, t) for |x - x'| <= 1
// (Definition 3). In the rotated coordinates
//
//	u = t + x,   w = t - x
//
// every arc is non-decreasing in both u and w, and the paper's diamond
// domain D(r) — the set |x-cx| + |t-ct| <= r/2 — becomes an axis-aligned
// semi-open square [u0, u0+r) × [w0, w0+r). Splitting that square into four
// quadrants, ordered so that lower-coordinate quadrants come first, is
// precisely the paper's topological partition of D(r) into four D(r/2)
// (Section 4.1), because dependencies only flow from coordinate-wise lower
// points.
//
// For d = 2 the dag vertices are (x, y, t) with mesh-neighbor arcs, and in
//
//	a = t + x,  b = t - x,  e = t + y,  f = t - y
//
// (with the built-in constraint a + b = e + f = 2t) arcs are non-decreasing
// in all four coordinates. The paper's octahedron P(R) — the intersection
// |t±x| <= R/2, |t±y| <= R/2 — is the semi-open box
// [a0,a0+R) × [b0,b0+R) × [e0,e0+R) × [f0,f0+R) with a0+b0 = e0+f0, and its
// tetrahedron W(R) is the same box with the two pair-sums offset by R
// (|a0+b0 - (e0+f0)| = R). Halving all four ranges yields exactly the
// paper's Figure 3 decompositions: 6 octahedra + 8 tetrahedra for P, and
// 1 octahedron + 4 tetrahedra for W.
//
// For d = 3 the dag vertices are (x, y, z, t), and the six coordinates
// t ± x, t ± y, t ± z (all three pair sums 2t) are again non-decreasing
// along every arc, so any semi-open box in them is convex and halving its
// six ranges is an ordered topological partition: the four-dimensional
// topological separator the paper conjectured. The equal-sided box with
// all pair sums equal is the d = 3 analog of the octahedron, of measure
// Θ(R⁴) and preboundary Θ(R³) = Θ(|U|^(3/4)), the γ = d/(d+1) separator
// exponent; it splits into 10 such central polytopes and 36 wedges.
//
// A Domain stores the ranges as P[a] (of t + x_a) and M[a] (of t - x_a)
// per spatial axis a < d, so u, w are P[0], M[0] and a, b, e, f are
// P[0], M[0], P[1], M[1].
//
// All domains are semi-open from below, which realizes the paper's
// convention that a domain "does not contain those points of its frontier
// corresponding to minimum values of t" and makes partitions exact on the
// integer lattice, with no shared or dropped boundary points.
package lattice

import "fmt"

// Point is a dag vertex position. For d = 1 domains Y and Z are always 0
// and the point is (X, T); for d = 2, (X, Y, T) with Z = 0; for d = 3,
// (X, Y, Z, T). T is the time step of the simulated network computation.
type Point struct {
	X, Y, Z, T int
}

// String formats the point as (x,y,z,t).
func (p Point) String() string { return fmt.Sprintf("(%d,%d,%d,%d)", p.X, p.Y, p.Z, p.T) }

// Less orders points by (T, X, Y, Z). Ascending order is a topological
// order of the d = 1, 2, 3 computation dags, because every arc increases
// T by exactly one.
func (p Point) Less(q Point) bool {
	if p.T != q.T {
		return p.T < q.T
	}
	if p.X != q.X {
		return p.X < q.X
	}
	if p.Y != q.Y {
		return p.Y < q.Y
	}
	return p.Z < q.Z
}

// Clip is a half-open axis-aligned box in machine coordinates: x in [X0,X1),
// y in [Y0,Y1), z in [Z0,Z1), t in [T0,T1). Domains are intersected with a
// Clip to produce the "truncated" diamond/octahedron/tetrahedron instances
// of Figures 1 and 4. For d = 1 use Y0 = Z0 = 0, Y1 = Z1 = 1; for d = 2,
// Z0 = 0, Z1 = 1.
type Clip struct {
	X0, X1, Y0, Y1, Z0, Z1, T0, T1 int
}

// ClipAll1D returns the clip of the full d = 1 computation domain
// V = [0,n) × [0,T): n processors running T steps.
func ClipAll1D(n, t int) Clip {
	return Clip{X0: 0, X1: n, Y0: 0, Y1: 1, Z0: 0, Z1: 1, T0: 0, T1: t}
}

// ClipAll2D returns the clip of the full d = 2 computation domain
// V = [0,side)² × [0,T).
func ClipAll2D(side, t int) Clip {
	return Clip{X0: 0, X1: side, Y0: 0, Y1: side, Z0: 0, Z1: 1, T0: 0, T1: t}
}

// ClipAll3D returns the clip of the full d = 3 computation domain
// V = [0,side)³ × [0,T).
func ClipAll3D(side, t int) Clip {
	return Clip{X0: 0, X1: side, Y0: 0, Y1: side, Z0: 0, Z1: side, T0: 0, T1: t}
}

// Contains reports whether p lies inside the clip box.
func (c Clip) Contains(p Point) bool {
	return p.X >= c.X0 && p.X < c.X1 &&
		p.Y >= c.Y0 && p.Y < c.Y1 &&
		p.Z >= c.Z0 && p.Z < c.Z1 &&
		p.T >= c.T0 && p.T < c.T1
}

// Empty reports whether the clip box contains no lattice points.
func (c Clip) Empty() bool {
	return c.X0 >= c.X1 || c.Y0 >= c.Y1 || c.Z0 >= c.Z1 || c.T0 >= c.T1
}

// Volume reports the number of lattice points in the clip box.
func (c Clip) Volume() int {
	if c.Empty() {
		return 0
	}
	return (c.X1 - c.X0) * (c.Y1 - c.Y0) * (c.Z1 - c.Z0) * (c.T1 - c.T0)
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a > 0) != (b > 0) {
		q--
	}
	return q
}
