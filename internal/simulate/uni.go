package simulate

import (
	"context"

	"bsmp/internal/analytic"
	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/separator"
	"fmt"
)

// UniDCContext runs the uniprocessor divide-and-conquer simulation for m = 1:
// Theorem 2 (d = 1, guest M1(n, n, 1)) or Theorem 5 (d = 2, guest
// M2(n, n, 1), n = side²), executing the guest's T-step computation dag on
// a single f(x) = x^(1/d) H-RAM via the topological-separator technique
// with real address management. steps is T; the paper's canonical choice
// is T = n^(1/d) per simulation cycle, repeated for longer computations.
//
// The returned Result carries the final dag layer as Outputs; verify with
// VerifyDag. The expected slowdown over the guest's Θ(T) time is
// Θ(n·Log n) — the n for lost parallelism times Log n for lost locality.
//
// The separator executor polls cancellation at every partition boundary
// and (amortized) per executed leaf via its Check hook, and reports step
// progress to any attached Progress. The hook runs between charged
// operations, so a never-cancelled run's virtual times do not depend on
// ctx.
func UniDCContext(ctx context.Context, d, n, steps, leafSize int, prog dag.Program) (Result, error) {
	g, root, err := guestDag(d, n, steps)
	if err != nil {
		return Result{}, err
	}
	space := separator.SpaceNeeded(g, root, leafSize)
	var meter cost.Meter
	mach := hram.New(space, hram.Standard(d, 1), &meter)
	ec := newExecCtx(ctx)
	defer ec.publish()
	ex := &separator.Executor{G: g, Prog: prog, LeafSize: leafSize, Check: ec.separatorCheck}
	res, err := ex.Execute(mach, root)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Outputs: res.Outputs,
		Time:    meter.Now(),
		Ledger:  meter.Ledger,
		Steps:   steps,
		Space:   res.Space,
	}, nil
}

// UniNaiveDagContext executes the same m = 1 guest dag on the same uniprocessor
// host but in plain row-major order with the guest's natural memory layout
// (node v's value at address v), the unsophisticated baseline of
// Proposition 1: every operand access pays the full Θ(n^(1/d)) average
// latency. Expected slowdown Θ(n^(1+1/d)) — the curve UniDCContext must beat.
//
// Cancellation is checked once per dag layer (n vertices of work) and
// progress reported to any attached Progress.
func UniNaiveDagContext(ctx context.Context, d, n, steps int, prog dag.Program) (Result, error) {
	g, _, err := guestDag(d, n, steps)
	if err != nil {
		return Result{}, err
	}
	ec := newExecCtx(ctx)
	defer ec.publish()
	var meter cost.Meter
	// Two layers resident: previous and current, each n words.
	mach := hram.New(2*n, hram.Standard(d, 1), &meter)
	nodes := g.Nodes()
	var buf []lattice.Point
	ops := make([]dag.Value, 0, 5)
	idx := func(p lattice.Point) int {
		switch d {
		case 2:
			side := analytic.IntSqrtExact(n)
			return p.Y*side + p.X
		case 3:
			side := analytic.IntCbrtExact(n)
			return (p.Z*side+p.Y)*side + p.X
		default:
			return p.X
		}
	}
	cur, prev := 0, nodes // ping-pong bases
	// Input layer.
	forEachNode(d, n, func(p lattice.Point) {
		mach.Op()
		mach.Write(cur+idx(p), prog.Input(p))
	})
	for t := 1; t < steps; t++ {
		if err := ec.step(n); err != nil {
			return Result{}, err
		}
		cur, prev = prev, cur
		forEachNode(d, n, func(p lattice.Point) {
			p.T = t
			buf = g.Preds(p, buf[:0])
			ops = ops[:0]
			for _, q := range buf {
				ops = append(ops, mach.Read(prev+idx(q)))
			}
			mach.Op()
			mach.Write(cur+idx(p), prog.Step(p, ops))
		})
	}
	out := make([]dag.Value, nodes)
	forEachNode(d, n, func(p lattice.Point) {
		out[idx(p)] = mach.Peek(cur + idx(p))
	})
	return Result{
		Outputs: out,
		Time:    meter.Now(),
		Ledger:  meter.Ledger,
		Steps:   steps,
	}, nil
}

// VerifyDag checks a dag-level simulation result against the reference
// execution of the same guest.
func VerifyDag(r Result, d, n int, prog dag.Program) error {
	g, _, err := guestDag(d, n, r.Steps)
	if err != nil {
		return err
	}
	want := dag.Reference(g, prog)
	if len(r.Outputs) != len(want) {
		return fmt.Errorf("simulate: %d outputs, want %d", len(r.Outputs), len(want))
	}
	for i := range want {
		if r.Outputs[i] != want[i] {
			return fmt.Errorf("simulate: output[%d] = %d, want %d", i, r.Outputs[i], want[i])
		}
	}
	return nil
}

// separatorCheck is the separator executor's Check hook: vertices = 0
// marks a phase boundary (unconditional poll), a positive count is
// amortized vertex progress.
func (e *execCtx) separatorCheck(vertices int) error {
	if vertices == 0 {
		return e.checkpoint()
	}
	return e.step(vertices)
}

// guestDag builds the guest's computation dag and its full domain.
func guestDag(d, n, steps int) (dag.Graph, lattice.Domain, error) {
	if n < 1 || steps < 1 {
		return nil, nil, perr("unidc", "n", fmt.Sprintf("needs n >= 1 and steps >= 1, got n=%d steps=%d", n, steps), n)
	}
	switch d {
	case 1:
		g := dag.NewLineGraph(n, steps)
		return g, g.Domain(), nil
	case 2:
		side, ok := exactSqrt(n)
		if !ok {
			return nil, nil, shapeError("unidc", "n", 2, n)
		}
		g := dag.NewMeshGraph(side, steps)
		return g, g.Domain(), nil
	case 3:
		side, ok := exactCbrt(n)
		if !ok {
			return nil, nil, shapeError("unidc", "n", 3, n)
		}
		g := dag.NewCubeGraph(side, steps)
		return g, g.Domain(), nil
	default:
		return nil, nil, fmt.Errorf("simulate: dimension %d not in {1,2,3}", d)
	}
}

// forEachNode visits the guest's nodes at t = 0 in index order.
func forEachNode(d, n int, f func(lattice.Point)) {
	switch d {
	case 1:
		for x := 0; x < n; x++ {
			f(lattice.Point{X: x})
		}
	case 2:
		side := analytic.IntSqrtExact(n)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				f(lattice.Point{X: x, Y: y})
			}
		}
	default:
		side := analytic.IntCbrtExact(n)
		for z := 0; z < side; z++ {
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					f(lattice.Point{X: x, Y: y, Z: z})
				}
			}
		}
	}
}
