package simulate

import (
	"context"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
)

// BlockedD1Context runs Theorem 3's uniprocessor simulation of M1(n, n, m) for
// general m: the divide-and-conquer of Theorem 2 where the unit of
// relocation is a node's entire m-word private memory, recursing on
// diamonds down to "executable diamonds" of width ~m that are simulated
// naively in place.
//
// Two kinds of values flow through the recursion:
//
//   - broadcast values: one word per dag vertex (x, t), the Definition 3
//     operand exchanged with neighbors; and
//   - column images: the m-word private memory of guest node x "before
//     step t", consumed at the first step a domain simulates for column x
//     and handed off (renamed in place, free) to the next domain in time.
//
// Both are managed with real addresses on a single f(x) = x/m H-RAM, with
// every relocation paying per-word access costs, so the measured virtual
// time is first-principles. Expected slowdown: Θ(n·min(n, m·Log(n/m))),
// with the executable-diamond width as the knob ablated by the benchmarks.
//
// leafWidth <= 0 selects the paper's choice: the memory density m.
//
// Passing hram.WithPipelinedBlocks() as an option models the paper's
// concluding alternative — "memory enhanced with pipelining capabilities
// that would permit issuing a memory request before all the previous ones
// have been satisfied" — under which block relocations cost latency plus
// length instead of length times latency, and the locality slowdown
// largely disappears (experiment E-PIPE).
//
// The recursion itself lives in blocked_exec.go, shared with BlockedD2Context
// and BlockedD3Context; this wrapper supplies the line geometry: node id = x,
// operand stencil (self, left, right), columns sorted by ascending x.
//
// Cancellation is checked at every recursion boundary and (amortized)
// every checkInterval leaf vertices, and step progress is reported to
// any attached Progress. The checks are host-side only, so a
// never-cancelled run's virtual times do not depend on ctx.
func BlockedD1Context(ctx context.Context, n, m, steps, leafWidth int, prog network.Program, opts ...hram.Option) (Result, error) {
	if e := validateBlocked(1, n, m, steps); e != nil {
		return Result{}, e
	}
	if leafWidth <= 0 {
		leafWidth = m
	}
	if leafWidth < 2 {
		leafWidth = 2
	}
	g := dag.NewLineGraph(n, steps+1)
	iw, err := imageWords(prog, m)
	if err != nil {
		return Result{}, err
	}
	geom := blockedGeom{
		nodeIndex: func(p lattice.Point) int { return p.X },
		nodePos:   func(node int) lattice.Point { return lattice.Point{X: node} },
		netPreds: func(p lattice.Point, buf []lattice.Point) []lattice.Point {
			// Operands in network order: (self, left, right) at t-1.
			buf = append(buf, lattice.Point{X: p.X, T: p.T - 1})
			if p.X > 0 {
				buf = append(buf, lattice.Point{X: p.X - 1, T: p.T - 1})
			}
			if p.X < n-1 {
				buf = append(buf, lattice.Point{X: p.X + 1, T: p.T - 1})
			}
			return buf
		},
		sortCols: true,
	}
	b := newBlockedExec(ctx, g, prog, m, iw, steps, leafWidth, geom)
	defer b.ec.publish()
	root := g.Domain()
	space, err := b.spaceNeeded(root)
	if err != nil {
		return Result{}, err
	}
	var meter cost.Meter
	b.mach = hram.New(space, hram.Standard(1, m), &meter, opts...)
	if memoEnabled(ctx) {
		b.enableMemo(&meter)
	}
	if err := b.exec(root, space, 0); err != nil {
		return Result{}, err
	}
	out, mems, err := b.collect(1, n)
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

// MemUser is an optional interface for programs that touch only the first
// MemWords() cells of each node's m-word memory. The blocked simulation
// then relocates only those words, realizing the paper's concluding
// observation that "if an algorithm for n processors actually requires m'
// memory cells per processor, with m' < m, more locality will result in
// implementations with p processors".
type MemUser interface {
	// MemWords reports m': the number of cells actually addressed,
	// given the machine's density m. Must satisfy 1 <= m' <= m, and
	// Address must always return values below m'.
	MemWords(memSize int) int
}
