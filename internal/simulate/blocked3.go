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

// BlockedD3Context completes the d = 3 extension for general m: the blocked
// simulation of the cube-mesh guest M3(n, n, m) on the uniprocessor
// M3(n, 1, m), recursing on the four-dimensional Box6 separator down to
// executable domains of span ~m. Together with the m = 1 result of
// simulate.UniDCContext(ctx, 3, ...) this makes the full Theorem 3 mechanism
// available in three dimensions — the regime the paper's conclusions
// conjecture about.
//
// n must be a perfect cube; leafSpan <= 0 selects span m.
//
// The recursion lives in blocked_exec.go, shared across dimensions; this
// wrapper supplies the cube geometry: node id = (z*side+y)*side+x,
// operand stencil self then the six cube neighbors in Neighbors order
// (W, E, S, N, D, U), columns in first-seen (T, X, Y, Z) order.
//
// See BlockedD1Context for the cancellation and progress contract.
func BlockedD3Context(ctx context.Context, n, m, steps, leafSpan int, prog network.Program, opts ...hram.Option) (Result, error) {
	if e := validateBlocked(3, n, m, steps); e != nil {
		return Result{}, e
	}
	side, _ := exactCbrt(n)
	if leafSpan <= 0 {
		leafSpan = m
	}
	if leafSpan < 2 {
		leafSpan = 2
	}
	g := dag.NewCubeGraph(side, steps+1)
	iw, err := imageWords(prog, m)
	if err != nil {
		return Result{}, err
	}
	// Node id ↔ coordinate maps come from the guest mesh topology; only
	// the dag-layer predecessor stencil below stays lattice-local (its
	// clipped W, E, S, N, D, U order mirrors topology Neighbors order).
	mesh := topology.NewMesh3(n, n)
	geom := blockedGeom{
		nodeIndex: func(p lattice.Point) int { return mesh.Index3(p.X, p.Y, p.Z) },
		nodePos: func(node int) lattice.Point {
			gx, gy, gz := mesh.Coord3(node)
			return lattice.Point{X: gx, Y: gy, Z: gz}
		},
		netPreds: func(p lattice.Point, buf []lattice.Point) []lattice.Point {
			// Operands in network order: self, then the six cube neighbors
			// in Neighbors order (W, E, S, N, D, U), clipped.
			buf = append(buf, lattice.Point{X: p.X, Y: p.Y, Z: p.Z, T: p.T - 1})
			if p.X > 0 {
				buf = append(buf, lattice.Point{X: p.X - 1, Y: p.Y, Z: p.Z, T: p.T - 1})
			}
			if p.X < side-1 {
				buf = append(buf, lattice.Point{X: p.X + 1, Y: p.Y, Z: p.Z, T: p.T - 1})
			}
			if p.Y > 0 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y - 1, Z: p.Z, T: p.T - 1})
			}
			if p.Y < side-1 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y + 1, Z: p.Z, T: p.T - 1})
			}
			if p.Z > 0 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y, Z: p.Z - 1, T: p.T - 1})
			}
			if p.Z < side-1 {
				buf = append(buf, lattice.Point{X: p.X, Y: p.Y, Z: p.Z + 1, T: p.T - 1})
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
	b.mach = hram.New(space, hram.Standard(3, m), &meter, opts...)
	if memoEnabled(ctx) {
		b.enableMemo(&meter)
	}
	if err := b.exec(root, space, 0); err != nil {
		return Result{}, err
	}
	out, mems, err := b.collect(3, n)
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
