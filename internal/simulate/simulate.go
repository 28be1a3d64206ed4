// Package simulate implements the simulation algorithms that constitute
// the contribution of Bilardi & Preparata (SPAA 1995): executing a T-step
// computation of the guest machine Md(n, n, m) on a host Md(n, p, m) with
// fewer processors, under bounded-speed message propagation.
//
// The implemented schemes, from least to most sophisticated:
//
//   - Naive (naive.go): Proposition 1 and its parallel version — the host
//     mimics the guest step by step, paying the full memory-access
//     latency for every simulated node. Slowdown Θ((n/p)^(1+1/d)).
//   - Uniprocessor divide-and-conquer (uni.go): Theorems 2 (d = 1) and 5
//     (d = 2) for m = 1, the vertex flow of the Proposition 2 recursion
//     (blocked_exec.go) with real address management. Slowdown
//     Θ(n log n).
//   - Blocked uniprocessor (blocked.go): Theorem 3 for general m —
//     the same recursion down to "executable domains" of span m (the
//     diamonds D(m) at d = 1), whole node-memories relocated as blocks.
//     Slowdown Θ(n·min(n, m·Log(n/m))) at d = 1.
//   - Multiprocessor (multi.go): Theorem 4 / Theorem 1 — the memory
//     rearrangement π, Regime 1 relocation, and Regime 2 cooperating-mode
//     execution. Slowdown Θ((n/p)·A(n, m, p)).
//
// Every scheme is functionally exact: its outputs are compared against the
// pure reference execution of the same guest. Costs are charged into
// cost meters at the finest granularity each scheme's data is represented:
// per word and per address for the uniprocessor schemes, per phase
// (calibrated by measured kernels) for the multiprocessor orchestration —
// see DESIGN.md for the fidelity ladder.
package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/cost"
	"bsmp/internal/hram"
	"bsmp/internal/network"
)

// Result reports a simulation run.
type Result struct {
	// Outputs holds the guest's final broadcast values per node.
	Outputs []hram.Word
	// Memory holds the guest's final memories, node v's m words at
	// [v·m, (v+1)·m) (nil when the scheme does not carry node memories,
	// i.e. pure m = 1 dag runs).
	Memory []hram.Word
	// Time is the host's elapsed virtual time.
	Time cost.Time
	// Ledger attributes the host time by category.
	Ledger cost.Ledger
	// Steps is the number of guest steps simulated.
	Steps int
	// Space is the host memory allowance used, when the scheme manages
	// real addresses (the Proposition 2 recursion: unidc, blocked and
	// blocked-analytic); 0 otherwise.
	Space int
	// Levels is the recursion's relocation profile, one entry per depth
	// that holds an inner domain (nil for the other schemes). The inner
	// depths of a memo-replayed subtree are not counted: its copy-downs
	// and stagings count at its parent's depth, its own recursion at
	// none.
	Levels []LevelStat

	// digest is the final state's Digest when the run took it from a
	// replay share instead of carrying Outputs and Memory.
	digest string
}

// LevelStat records the relocation work done at one recursion depth of
// Proposition 2's procedure. Proposition 3's τ(k) = O(k·log k) bound rests
// on every depth moving O(k) worth of (words × access cost); experiment
// E-LEV checks that measured per-level Transfer time is flat across
// depths.
type LevelStat struct {
	// Domains is the number of inner domains executed at this depth.
	Domains int
	// WordsMoved counts the words copied down to and staged from this
	// depth's children: preboundary and live-out broadcasts, plus the
	// image words in an image flow.
	WordsMoved int
	// TransferTime is the virtual time those moves cost.
	TransferTime float64
}

// Digest is the digest of the run's final guest state,
// network.Digest(Outputs, Memory): "" for a run that carries no guest
// state. A run under a replay share (WithSharedReplay) carries this
// digest alone, with nil Outputs and Memory.
func (r Result) Digest() string {
	if r.digest != "" {
		return r.digest
	}
	return network.Digest(r.Outputs, r.Memory)
}

// Verify checks r's outputs (and memory, when present) against the pure
// reference run of the same guest and returns an error on any mismatch.
// A run that carries only its digest is checked by digest.
func (r Result) Verify(d, n, m int, prog network.Program) error {
	wantB, wantM := network.RunGuestPure(d, n, m, r.Steps, prog)
	if r.digest != "" {
		if want := network.Digest(wantB, wantM); r.digest != want {
			return fmt.Errorf("simulate: digest %s, want %s", r.digest, want)
		}
		return nil
	}
	if len(r.Outputs) != len(wantB) {
		return fmt.Errorf("simulate: %d outputs, want %d", len(r.Outputs), len(wantB))
	}
	for i := range wantB {
		if r.Outputs[i] != wantB[i] {
			return fmt.Errorf("simulate: output[%d] = %d, want %d", i, r.Outputs[i], wantB[i])
		}
	}
	if r.Memory != nil {
		if len(r.Memory) != len(wantM) {
			return fmt.Errorf("simulate: %d memory words, want %d", len(r.Memory), len(wantM))
		}
		for i := range wantM {
			if r.Memory[i] != wantM[i] {
				return fmt.Errorf("simulate: memory[%d][%d] = %d, want %d",
					i/m, i%m, r.Memory[i], wantM[i])
			}
		}
	}
	return nil
}

// GuestTimeContext measures Tn: the elapsed virtual time of the guest
// machine Md(n, n, m) itself running prog for steps steps — the
// denominator of every slowdown ratio. The guest run polls cancellation
// once per synchronous step and reports progress to any attached
// Progress; a never-cancelled run measures the same time. A malformed
// geometry gets a ParamError.
func GuestTimeContext(ctx context.Context, d, n, m, steps int, prog network.Program) (cost.Time, error) {
	if e := validateGuest("guest", d, n, m, steps, 1); e != nil {
		return 0, e
	}
	ec := newExecCtx(ctx)
	defer ec.publish()
	_, elapsed, err := network.RunGuest(network.New(d, n, n, m), prog, steps, ec.hook())
	if err != nil {
		return 0, err
	}
	return elapsed, nil
}
