package simulate

import (
	"context"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// BlockedD2Context is the d = 2 analogue of BlockedD1Context: Theorem 3's
// blocked simulation of the mesh guest M2(n, n, m) on the uniprocessor M2(n, 1,
// m), recursing on the octahedron/tetrahedron domains of Section 5 with whole
// node memories as the unit of relocation, down to "executable octahedra" of
// span ~m simulated naively in place.
//
// The same two value kinds flow as in the d = 1 scheme — broadcast words
// per dag vertex and m-word node images keyed by (x, y, entry time) —
// with real address management on a single f(x) = sqrt(x/m) H-RAM. The
// paper states only the d = 1 construction explicitly (Theorem 3) and the
// combined d = 2 bound (Theorem 1); this executor shows the blocked
// technique carries over verbatim once the octahedral separator replaces
// the diamond.
//
// n must be a perfect square; leafSpan <= 0 selects span m (the
// executable-domain width that balances per-vertex access cost against
// per-level relocation, the same tradeoff as d = 1).
//
// The recursion lives in blocked_exec.go, shared across dimensions; this
// wrapper supplies the mesh geometry: node id = y*side+x, operand stencil
// (self, W, E, S, N), columns in first-seen (T, X, Y) order.
//
// See BlockedD1Context for the cancellation and progress contract.
func BlockedD2Context(ctx context.Context, n, m, steps, leafSpan int, prog network.Program, opts ...hram.Option) (Result, error) {
	if e := validateBlocked(2, n, m, steps); e != nil {
		return Result{}, e
	}
	side, _ := exactSqrt(n)
	if leafSpan <= 0 {
		leafSpan = m
	}
	if leafSpan < 2 {
		leafSpan = 2
	}
	g := dag.NewMeshGraph(side, steps+1)
	iw, err := imageWords(prog, m)
	if err != nil {
		return Result{}, err
	}
	// Node id ↔ coordinate maps come from the guest mesh topology; only
	// the dag-layer predecessor stencil below stays lattice-local (its
	// clipped W, E, S, N order mirrors topology Neighbors order).
	mesh := topology.NewMesh2(n, n)
	geom := blockedGeom{
		nodeIndex: func(p lattice.Point) int { return mesh.Index(p.X, p.Y) },
		nodePos: func(node int) lattice.Point {
			gx, gy := mesh.Coord(node)
			return lattice.Point{X: gx, Y: gy}
		},
		netPreds: func(p lattice.Point, buf []lattice.Point) []lattice.Point {
			// Operands in network order: self, W, E, S, N (clipped).
			buf = append(buf, lattice.Point{X: p.X, Y: p.Y, T: p.T - 1})
			if p.X > 0 {
				buf = append(buf, lattice.Point{X: p.X - 1, Y: p.Y, T: p.T - 1})
			}
			if p.X < side-1 {
				buf = append(buf, lattice.Point{X: p.X + 1, Y: p.Y, T: p.T - 1})
			}
			if p.Y > 0 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y - 1, T: p.T - 1})
			}
			if p.Y < side-1 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y + 1, T: p.T - 1})
			}
			return buf
		},
		side: side,
	}
	b := newBlockedExec(ctx, g, prog, m, iw, steps, leafSpan, geom)
	defer b.ec.publish()
	root := g.Domain()
	space, err := b.spaceNeeded(root)
	if err != nil {
		return Result{}, err
	}
	var meter cost.Meter
	b.mach = hram.New(space, hram.Standard(2, m), &meter, opts...)
	if memoEnabled(ctx) {
		b.enableMemo(&meter)
	}
	if err := b.exec(root, space, 0); err != nil {
		return Result{}, err
	}
	out, mems, err := b.collect(2, n)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Outputs:  out,
		Memories: mems,
		Time:     meter.Now(),
		Ledger:   meter.Ledger,
		Steps:    steps,
		Space:    space,
	}, nil
}
