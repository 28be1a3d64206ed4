// Package dag models the computation dags G_T(H) of Definition 3 of
// Bilardi & Preparata (SPAA 1995): a T-step computation of a network
// H = (N, E) is the directed acyclic graph with a vertex (v, t) per network
// node v and step t, and arcs (u, t-1) -> (v, t) whenever u = v or
// (u, v) ∈ E. Executing the dag is simulating the network.
//
// Dags are represented implicitly (by predecessor functions over lattice
// points), since the simulations operate on dags with up to billions of
// vertices conceptually; the concrete instances here are the linear array
// (LineGraph), the square mesh (MeshGraph) and the cube mesh (CubeGraph).
//
// The package also carries the value semantics used for functional
// verification: a Program assigns input values to the t = 0 vertices and a
// step function to the others, and Reference executes it directly — the
// "infinitely fast" executor whose output every hosted simulation must
// reproduce exactly.
package dag

import (
	"fmt"

	"bsmp/internal/lattice"
)

// Value is the datum carried by a dag vertex. Integer values make
// functional verification exact (no rounding ambiguity between executors).
type Value = uint64

// Graph is an implicit computation dag over lattice points.
type Graph interface {
	// Contains reports whether v is a vertex of the dag.
	Contains(v lattice.Point) bool
	// Preds appends the predecessors of v (in a fixed deterministic
	// order) to buf and returns the extended slice. Vertices at t = 0
	// have no predecessors (they are inputs). Predecessors are always
	// vertices of the dag (machine boundaries truncate the neighbor
	// stencil).
	Preds(v lattice.Point, buf []lattice.Point) []lattice.Point
	// Succs appends the successors of v (the vertices having v as a
	// predecessor) to buf and returns the extended slice. Vertices at
	// t = Steps()-1 have none.
	Succs(v lattice.Point, buf []lattice.Point) []lattice.Point
	// Steps reports T, the number of time layers (t in [0, T)).
	Steps() int
	// Nodes reports the number of network nodes |N| (vertices per layer).
	Nodes() int
	// Bounds reports the finite box containing every vertex of the dag,
	// the basis for the dense lattice.Indexer address tables used by the
	// executors in place of Point-keyed hash maps.
	Bounds() lattice.Clip
}

// LineGraph is G_T(M1(n, n, 1)): the n-node linear array run for T steps.
// Vertex (x, t) for 0 <= x < n, 0 <= t < T; predecessors are
// (x-1, t-1), (x, t-1), (x+1, t-1) clipped to the array.
type LineGraph struct {
	N, T int
}

// NewLineGraph returns the dag of an n-node linear array run for t steps.
func NewLineGraph(n, t int) LineGraph {
	if n < 1 || t < 1 {
		panic(fmt.Sprintf("dag: LineGraph(%d, %d) needs n, t >= 1", n, t))
	}
	return LineGraph{N: n, T: t}
}

// Contains implements Graph.
func (g LineGraph) Contains(v lattice.Point) bool {
	return v.Y == 0 && v.Z == 0 && v.X >= 0 && v.X < g.N && v.T >= 0 && v.T < g.T
}

// Preds implements Graph: left neighbor, self, right neighbor at t-1.
func (g LineGraph) Preds(v lattice.Point, buf []lattice.Point) []lattice.Point {
	if v.T <= 0 {
		return buf
	}
	if v.X > 0 {
		buf = append(buf, lattice.Point{X: v.X - 1, T: v.T - 1})
	}
	buf = append(buf, lattice.Point{X: v.X, T: v.T - 1})
	if v.X < g.N-1 {
		buf = append(buf, lattice.Point{X: v.X + 1, T: v.T - 1})
	}
	return buf
}

// Succs implements Graph: left neighbor, self, right neighbor at t+1.
func (g LineGraph) Succs(v lattice.Point, buf []lattice.Point) []lattice.Point {
	if v.T >= g.T-1 {
		return buf
	}
	if v.X > 0 {
		buf = append(buf, lattice.Point{X: v.X - 1, T: v.T + 1})
	}
	buf = append(buf, lattice.Point{X: v.X, T: v.T + 1})
	if v.X < g.N-1 {
		buf = append(buf, lattice.Point{X: v.X + 1, T: v.T + 1})
	}
	return buf
}

// Steps implements Graph.
func (g LineGraph) Steps() int { return g.T }

// Nodes implements Graph.
func (g LineGraph) Nodes() int { return g.N }

// Domain returns the full computation domain of the dag as a lattice
// domain (the bounding diamond clipped to V).
func (g LineGraph) Domain() lattice.Domain { return lattice.Around(1, g.N, g.T) }

// Bounds implements Graph.
func (g LineGraph) Bounds() lattice.Clip { return lattice.ClipAll1D(g.N, g.T) }

// MeshGraph is G_T(M2(n, n, 1)) with n = Side²: the Side × Side mesh run
// for T steps. Vertex (x, y, t); predecessors are the von Neumann stencil
// at t-1 clipped to the mesh.
type MeshGraph struct {
	Side, T int
}

// NewMeshGraph returns the dag of a side × side mesh run for t steps.
func NewMeshGraph(side, t int) MeshGraph {
	if side < 1 || t < 1 {
		panic(fmt.Sprintf("dag: MeshGraph(%d, %d) needs side, t >= 1", side, t))
	}
	return MeshGraph{Side: side, T: t}
}

// Contains implements Graph.
func (g MeshGraph) Contains(v lattice.Point) bool {
	return v.Z == 0 && v.X >= 0 && v.X < g.Side && v.Y >= 0 && v.Y < g.Side &&
		v.T >= 0 && v.T < g.T
}

// Preds implements Graph: self, then the four mesh neighbors (west, east,
// south, north) at t-1, clipped to the mesh.
func (g MeshGraph) Preds(v lattice.Point, buf []lattice.Point) []lattice.Point {
	if v.T <= 0 {
		return buf
	}
	t := v.T - 1
	buf = append(buf, lattice.Point{X: v.X, Y: v.Y, T: t})
	if v.X > 0 {
		buf = append(buf, lattice.Point{X: v.X - 1, Y: v.Y, T: t})
	}
	if v.X < g.Side-1 {
		buf = append(buf, lattice.Point{X: v.X + 1, Y: v.Y, T: t})
	}
	if v.Y > 0 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y - 1, T: t})
	}
	if v.Y < g.Side-1 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y + 1, T: t})
	}
	return buf
}

// Succs implements Graph: self, then the four mesh neighbors at t+1.
func (g MeshGraph) Succs(v lattice.Point, buf []lattice.Point) []lattice.Point {
	if v.T >= g.T-1 {
		return buf
	}
	t := v.T + 1
	buf = append(buf, lattice.Point{X: v.X, Y: v.Y, T: t})
	if v.X > 0 {
		buf = append(buf, lattice.Point{X: v.X - 1, Y: v.Y, T: t})
	}
	if v.X < g.Side-1 {
		buf = append(buf, lattice.Point{X: v.X + 1, Y: v.Y, T: t})
	}
	if v.Y > 0 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y - 1, T: t})
	}
	if v.Y < g.Side-1 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y + 1, T: t})
	}
	return buf
}

// Steps implements Graph.
func (g MeshGraph) Steps() int { return g.T }

// Nodes implements Graph.
func (g MeshGraph) Nodes() int { return g.Side * g.Side }

// Domain returns the full computation domain of the dag as a lattice
// domain (the bounding octahedron clipped to V).
func (g MeshGraph) Domain() lattice.Domain { return lattice.Around(2, g.Side, g.T) }

// Bounds implements Graph.
func (g MeshGraph) Bounds() lattice.Clip { return lattice.ClipAll2D(g.Side, g.T) }

// CubeGraph is G_T(M3(n, n, 1)) with n = Side³: the Side × Side × Side
// cube mesh run for T steps — the d = 3 machine of the paper's concluding
// conjecture. Vertex (x, y, z, t); predecessors are the 7-point stencil
// at t-1 clipped to the cube.
type CubeGraph struct {
	Side, T int
}

// NewCubeGraph returns the dag of a side³ cube mesh run for t steps.
func NewCubeGraph(side, t int) CubeGraph {
	if side < 1 || t < 1 {
		panic(fmt.Sprintf("dag: CubeGraph(%d, %d) needs side, t >= 1", side, t))
	}
	return CubeGraph{Side: side, T: t}
}

// Contains implements Graph.
func (g CubeGraph) Contains(v lattice.Point) bool {
	return v.X >= 0 && v.X < g.Side && v.Y >= 0 && v.Y < g.Side &&
		v.Z >= 0 && v.Z < g.Side && v.T >= 0 && v.T < g.T
}

// Preds implements Graph: self, then the six cube neighbors at t-1.
func (g CubeGraph) Preds(v lattice.Point, buf []lattice.Point) []lattice.Point {
	if v.T <= 0 {
		return buf
	}
	return g.stencil(v, v.T-1, buf)
}

// Succs implements Graph: self, then the six cube neighbors at t+1.
func (g CubeGraph) Succs(v lattice.Point, buf []lattice.Point) []lattice.Point {
	if v.T >= g.T-1 {
		return buf
	}
	return g.stencil(v, v.T+1, buf)
}

func (g CubeGraph) stencil(v lattice.Point, t int, buf []lattice.Point) []lattice.Point {
	buf = append(buf, lattice.Point{X: v.X, Y: v.Y, Z: v.Z, T: t})
	if v.X > 0 {
		buf = append(buf, lattice.Point{X: v.X - 1, Y: v.Y, Z: v.Z, T: t})
	}
	if v.X < g.Side-1 {
		buf = append(buf, lattice.Point{X: v.X + 1, Y: v.Y, Z: v.Z, T: t})
	}
	if v.Y > 0 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y - 1, Z: v.Z, T: t})
	}
	if v.Y < g.Side-1 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y + 1, Z: v.Z, T: t})
	}
	if v.Z > 0 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y, Z: v.Z - 1, T: t})
	}
	if v.Z < g.Side-1 {
		buf = append(buf, lattice.Point{X: v.X, Y: v.Y, Z: v.Z + 1, T: t})
	}
	return buf
}

// Steps implements Graph.
func (g CubeGraph) Steps() int { return g.T }

// Nodes implements Graph.
func (g CubeGraph) Nodes() int { return g.Side * g.Side * g.Side }

// Domain returns the full computation domain of the dag as a lattice
// domain (the bounding central polytope clipped to V).
func (g CubeGraph) Domain() lattice.Domain { return lattice.Around(3, g.Side, g.T) }

// Bounds implements Graph.
func (g CubeGraph) Bounds() lattice.Clip { return lattice.ClipAll3D(g.Side, g.T) }

// Program assigns values to a dag: inputs at t = 0 and a step rule above.
type Program interface {
	// Input returns the value of input vertex v (v.T == 0).
	Input(v lattice.Point) Value
	// Step computes the value of vertex v (v.T > 0) from the values of
	// its predecessors, in the order Graph.Preds returns them.
	Step(v lattice.Point, operands []Value) Value
}

// IsTopologicalOrder reports whether order is a valid execution order of
// exactly the given vertex set: every vertex appears once, and every
// predecessor inside the set appears earlier.
func IsTopologicalOrder(g Graph, order []lattice.Point) bool {
	ix := lattice.NewIndexer(g.Bounds())
	pos := lattice.NewAddrTable(ix)
	for i, p := range order {
		if !ix.Contains(p) {
			// Not a vertex of g: it can have no in-set predecessors and
			// cannot collide with any vertex index, but duplicates of it
			// would need a side table; reject such orders outright.
			return false
		}
		if _, dup := pos.Get(p); dup {
			return false
		}
		pos.Set(p, i)
	}
	var buf []lattice.Point
	for i, p := range order {
		buf = g.Preds(p, buf[:0])
		for _, q := range buf {
			if j, in := pos.Get(q); in && j > i {
				return false
			}
		}
	}
	return true
}

// Reference executes the full dag directly, layer by layer, and returns
// the values of the final layer (t = Steps()-1) indexed by node: for
// LineGraph index x; for MeshGraph index y*Side + x; for CubeGraph index
// (z*Side + y)*Side + x. This is the
// infinitely-fast executor used as ground truth by every simulation.
func Reference(g Graph, prog Program) []Value {
	switch gr := g.(type) {
	case LineGraph:
		return referenceLine(gr, prog)
	case MeshGraph:
		return referenceMesh(gr, prog)
	case CubeGraph:
		return referenceCube(gr, prog)
	default:
		panic(fmt.Sprintf("dag: Reference does not support %T", g))
	}
}

func referenceCube(g CubeGraph, prog Program) []Value {
	s := g.Side
	idx := func(x, y, z int) int { return (z*s+y)*s + x }
	cur := make([]Value, s*s*s)
	for z := 0; z < s; z++ {
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				cur[idx(x, y, z)] = prog.Input(lattice.Point{X: x, Y: y, Z: z})
			}
		}
	}
	next := make([]Value, s*s*s)
	ops := make([]Value, 0, 7)
	var buf []lattice.Point
	for t := 1; t < g.T; t++ {
		for z := 0; z < s; z++ {
			for y := 0; y < s; y++ {
				for x := 0; x < s; x++ {
					v := lattice.Point{X: x, Y: y, Z: z, T: t}
					buf = g.Preds(v, buf[:0])
					ops = ops[:0]
					for _, q := range buf {
						ops = append(ops, cur[idx(q.X, q.Y, q.Z)])
					}
					next[idx(x, y, z)] = prog.Step(v, ops)
				}
			}
		}
		cur, next = next, cur
	}
	return cur
}

func referenceLine(g LineGraph, prog Program) []Value {
	cur := make([]Value, g.N)
	for x := 0; x < g.N; x++ {
		cur[x] = prog.Input(lattice.Point{X: x})
	}
	next := make([]Value, g.N)
	ops := make([]Value, 0, 3)
	var buf []lattice.Point
	for t := 1; t < g.T; t++ {
		for x := 0; x < g.N; x++ {
			v := lattice.Point{X: x, T: t}
			buf = g.Preds(v, buf[:0])
			ops = ops[:0]
			for _, q := range buf {
				ops = append(ops, cur[q.X])
			}
			next[x] = prog.Step(v, ops)
		}
		cur, next = next, cur
	}
	return cur
}

func referenceMesh(g MeshGraph, prog Program) []Value {
	s := g.Side
	cur := make([]Value, s*s)
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			cur[y*s+x] = prog.Input(lattice.Point{X: x, Y: y})
		}
	}
	next := make([]Value, s*s)
	ops := make([]Value, 0, 5)
	var buf []lattice.Point
	for t := 1; t < g.T; t++ {
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				v := lattice.Point{X: x, Y: y, T: t}
				buf = g.Preds(v, buf[:0])
				ops = ops[:0]
				for _, q := range buf {
					ops = append(ops, cur[q.Y*s+q.X])
				}
				next[y*s+x] = prog.Step(v, ops)
			}
		}
		cur, next = next, cur
	}
	return cur
}
