package simulate

import (
	"context"

	"bsmp/internal/hram"
	"bsmp/internal/network"
)

// BlockedContext runs Theorem 3's blocked uniprocessor simulation of the
// d-dimensional guest Md(n, n, m) on Md(n, 1, m) for general m: the
// divide-and-conquer of Theorem 2 (d = 1) and Theorem 5 (d = 2) where the
// unit of relocation is a node's entire m-word private memory, recursing
// on the guest dag's domains down to "executable domains" of span ~m
// that are simulated naively in place. The domains are diamonds at
// d = 1, the octahedra and tetrahedra of Section 5 at d = 2, and the
// four-dimensional separator at d = 3. The paper states only the
// d = 1 construction explicitly (Theorem 3) and the combined d = 2 bound
// (Theorem 1); the same recursion carries over verbatim once the
// separator of the dimension replaces the diamond, and together with
// the m = 1 result of UniDCContext(ctx, 3, ...) it makes the Theorem 3
// mechanism available in the three dimensions the paper's conclusions
// conjecture about.
//
// Two kinds of values flow through the recursion:
//
//   - broadcast values: one word per dag vertex, the Definition 3
//     operand exchanged with neighbors; and
//   - column images: the m-word private memory of guest node v "before
//     step t", consumed at the first step a domain simulates for v and
//     handed off (renamed in place, free) to the next domain in time.
//
// Both are managed with real addresses on a single f(x) = (x/m)^(1/d)
// H-RAM, with every relocation paying per-word access costs, so the
// measured virtual time is first-principles. Expected slowdown at d = 1:
// Θ(n·min(n, m·Log(n/m))), with the executable-domain span as the knob
// ablated by the benchmarks.
//
// d must be 1, 2 or 3, and n a perfect square at d = 2 and a perfect
// cube at d = 3; a bad tuple gets a ParamError before anything is
// built. leafSpan <= 0 selects the paper's choice: the memory density
// m, which balances per-vertex access cost against per-level
// relocation.
//
// Passing hram.WithPipelinedBlocks() as an option models the paper's
// concluding alternative — "memory enhanced with pipelining capabilities
// that would permit issuing a memory request before all the previous ones
// have been satisfied" — under which block relocations cost latency plus
// length instead of length times latency, and the locality slowdown
// largely disappears (experiment E-PIPE).
//
// The recursion lives in blocked_exec.go. The guest's mesh topology
// supplies the node index and position, and the operand stencil is
// self first, then the mesh neighbors in topology.Neighbors order,
// the order network.Guest steps with.
//
// Cancellation is checked at every recursion boundary and (amortized)
// every executed leaf, and step progress is reported to any attached
// Progress. The checks are host-side only, so a never-cancelled run's
// virtual times do not depend on ctx.
func BlockedContext(ctx context.Context, d, n, m, steps, leafSpan int, prog network.Program, opts ...hram.Option) (Result, error) {
	return runBlocked(ctx, "blocked", d, n, m, steps, leafSpan, prog, false, opts...)
}

// BlockedAnalyticD1Context computes the virtual time, ledger and space of
// BlockedContext at d = 1 without guest values: the same recursion run on
// a charge-only H-RAM (hram.NewCharges), which makes exactly the exact
// machine's charges but stores no word, with congruent subtrees replayed
// as one summed (clock, ledger) delta each. With memoization off it
// equals BlockedContext bit for bit; with it on, up to float regrouping
// (TestAnalyticMatchesExact). Above 2²⁴ lattice points the address tables
// go sparse and hold O(surface) entries, so volumes of 10⁹ vertices
// (n = 2²⁰, steps = 2¹⁰) finish in seconds.
//
// Result.Outputs and Result.Memory are nil: there is nothing to verify
// guest-side, so callers validate against the work/span laws instead. It
// has the same cancellation and progress contract as BlockedContext.
func BlockedAnalyticD1Context(ctx context.Context, n, m, steps, leafWidth int, prog network.Program) (Result, error) {
	return runBlocked(ctx, "blocked-analytic", 1, n, m, steps, leafWidth, prog, true)
}

// runBlocked is the one blocked run behind both entry points: it
// validates the tuple and runs the image flow of the recursion
// (blockedExec.run), on a charge-only machine when analytic.
func runBlocked(ctx context.Context, scheme string, d, n, m, steps, leafSpan int, prog network.Program, analytic bool, opts ...hram.Option) (Result, error) {
	if e := validateGuest(scheme, d, n, m, steps, 0); e != nil {
		return Result{}, e
	}
	if leafSpan <= 0 {
		leafSpan = m
	}
	if leafSpan < 2 {
		leafSpan = 2
	}
	g, root := guestDag(d, n, steps+1)
	iw, err := imageWords(prog, m)
	if err != nil {
		return Result{}, err
	}
	return newBlockedExec(ctx, g, prog, m, iw, steps, leafSpan, newBlockedGeom(d, n)).run(root, analytic, opts...)
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
