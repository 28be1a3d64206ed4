package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/separator"
	"bsmp/internal/topology"
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
	if e := validateGuest("unidc", d, n, 1, steps, 1); e != nil {
		return Result{}, e
	}
	g, root := guestDag(d, n, steps)
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
	if e := validateGuest("uni-naive", d, n, 1, steps, 1); e != nil {
		return Result{}, e
	}
	g, _ := guestDag(d, n, steps)
	// Node v sits at the mesh position Coord3(v) and keeps its value at
	// address v of its layer; nodes are visited in index order.
	mesh := topology.NewMesh(d, n, n)
	pos := func(v int) lattice.Point {
		x, y, z := mesh.Coord3(v)
		return lattice.Point{X: x, Y: y, Z: z}
	}
	ec := newExecCtx(ctx)
	defer ec.publish()
	var meter cost.Meter
	// Two layers resident: previous and current, each n words.
	mach := hram.New(2*n, hram.Standard(d, 1), &meter)
	var buf []lattice.Point
	ops := make([]dag.Value, 0, 5)
	cur, prev := 0, n // ping-pong bases
	// Input layer.
	for v := 0; v < n; v++ {
		mach.Op()
		mach.Write(cur+v, prog.Input(pos(v)))
	}
	for t := 1; t < steps; t++ {
		if err := ec.step(n); err != nil {
			return Result{}, err
		}
		cur, prev = prev, cur
		for v := 0; v < n; v++ {
			p := pos(v)
			p.T = t
			buf = g.Preds(p, buf[:0])
			ops = ops[:0]
			for _, q := range buf {
				ops = append(ops, mach.Read(prev+mesh.Index3(q.X, q.Y, q.Z)))
			}
			mach.Op()
			mach.Write(cur+v, prog.Step(p, ops))
		}
	}
	out := make([]dag.Value, n)
	for v := range out {
		out[v] = mach.Peek(cur + v)
	}
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
	if e := validateGuest("verify", d, n, 1, r.Steps, 1); e != nil {
		return e
	}
	g, _ := guestDag(d, n, r.Steps)
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

// guestDag builds the computation dag of the n-node d-dimensional guest
// over steps time layers, and its full domain. The caller validates the
// geometry first (validateGuest).
func guestDag(d, n, steps int) (dag.Graph, lattice.Domain) {
	side, _ := topology.IntRoot(d, n)
	switch d {
	case 1:
		g := dag.NewLineGraph(n, steps)
		return g, g.Domain()
	case 2:
		g := dag.NewMeshGraph(side, steps)
		return g, g.Domain()
	default:
		g := dag.NewCubeGraph(side, steps)
		return g, g.Domain()
	}
}
