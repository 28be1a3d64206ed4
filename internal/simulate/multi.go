package simulate

import (
	"context"
	"fmt"
	"math"

	"bsmp/internal/analytic"
	"bsmp/internal/cost"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
	"bsmp/internal/perm"
)

// MultiOptions configure the multiprocessor simulations; the zero value
// is the paper's full scheme. One struct serves every dimension: d = 1
// reads StripWidth and NoCooperate, d = 2/3 read SpanOverride, all read
// NoRearrange. The ablation flags disable individual mechanisms to
// measure how load-bearing each one is (DESIGN.md § 6).
type MultiOptions struct {
	// StripWidth overrides the d = 1 strip width s; 0 selects the
	// paper's optimum s* (rounded to a power of two dividing n/p).
	StripWidth int
	// SpanOverride fixes the d = 2/3 kernel span σ; 0 lets the model
	// pick the cost-minimizing power of two in [2, (n/p)^(1/d)].
	SpanOverride int
	// NoRearrange skips the memory rearrangement: Regime 1 relocations
	// and cooperating-mode exchanges then occur at the original
	// Θ(n^(1/d))-scale distances instead of Θ((n/p)^(1/d)).
	NoRearrange bool
	// NoCooperate disables the d = 1 cooperating execution mode:
	// diamonds sitting across strip boundaries are executed solo by one
	// processor, which must pull the remote half of the preboundary —
	// s·m memory words instead of s broadcast words.
	NoCooperate bool
	// Theta is the Θ-model bounded delay ratio: when > 1, every
	// distance-proportional charge of the schedule is stretched by a
	// seeded factor in [1, Θ] and each wave ends in a join that idles
	// stragglers. 0 and 1 both select lockstep: at Θ = 1 every factor is
	// exactly 1, so the run is bit-identical to Θ = 0. Values in (0, 1),
	// NaN and Inf are rejected with a typed ParamError.
	Theta float64
	// ThetaSeed seeds the Θ-model delay draws. Runs with equal
	// (Theta, ThetaSeed) are deterministic, and a Θ-sweep at a fixed
	// seed varies only the bound, never the draw — which is what makes
	// the measured slowdown monotone non-decreasing in Θ.
	ThetaSeed uint64
	// Faults is the static fault density for the multi-faulty scheme:
	// the fraction of processors and memory cells sampled dead at
	// construction (topology.FaultMask). Must lie in [0, 1); 0 means
	// fault-free. Only the fault-admitting registry row plans a mask, so
	// the fault-free schemes and the engine entry points (MultiContext
	// and MultiD1CyclesContext) reject a nonzero value with a typed
	// ParamError — faults change the planned distances, so a silent
	// ignore would misattribute every charge.
	Faults float64
	// FaultSeed seeds the fault draws. Sampling is threshold-based, so
	// a density sweep at a fixed seed has NESTED dead sets and the
	// measured extra slowdown is monotone in Faults (E-FAULT pins this).
	FaultSeed uint64

	// faultDistMul and faultMemMul are the planning stretch factors the
	// multi-faulty scheme derives from its sampled mask (DetourFactor,
	// MemOverhead) and threads into the cost formulas below; 0 means
	// unset and reads as 1. Unexported: callers select faults via
	// Faults/FaultSeed, never by injecting raw multipliers.
	faultDistMul float64
	faultMemMul  float64
}

// faultMuls resolves the fault stretch factors, mapping the zero value
// to exactly 1.0 — every fault-free cost formula multiplies by these,
// and x * 1.0 == x in IEEE arithmetic, so the fault-free virtual times
// stay bit-identical (the golden contract).
func (o MultiOptions) faultMuls() (distMul, memMul float64) {
	distMul, memMul = o.faultDistMul, o.faultMemMul
	if distMul == 0 {
		distMul = 1
	}
	if memMul == 0 {
		memMul = 1
	}
	return distMul, memMul
}

// delayModel builds the delay model the options select: nil for
// lockstep (Theta 0, or 1, where every factor is exactly 1), a seeded
// cost.ThetaModel otherwise. Callers validate Theta first
// (validateTheta), so construction cannot fail.
func (o MultiOptions) delayModel() *cost.ThetaModel {
	if o.Theta == 0 || o.Theta == 1 {
		return nil
	}
	dm, err := cost.NewThetaModel(o.Theta, o.ThetaSeed)
	if err != nil {
		panic(err) // unreachable behind validateTheta
	}
	return dm
}

// MultiResult extends Result with the multiprocessor-specific accounting.
// One struct serves every dimension:
// StripWidth/PrepTime/Domains are d = 1 fields, Span is d = 2/3.
type MultiResult struct {
	Result
	// PrepTime is the one-time rearrangement cost (the paper amortizes
	// it over repeated simulation cycles; it is excluded from Time).
	PrepTime cost.Time
	// StripWidth is the d = 1 strip width s actually used.
	StripWidth int
	// Span is the d = 2/3 kernel span σ actually used.
	Span int
	// Regime1Levels is the number of relocation levels executed.
	Regime1Levels int
	// Domains is the number of D(p·s) domains processed in Regime 2.
	Domains int
	// Phases attributes the schedule's makespan and charges to the
	// rearrange / regime1 / regime2-exec / regime2-exchange phases; its
	// entry times sum to Time + PrepTime (up to float regrouping). Nil
	// for the degenerate p = 1 fallback, which runs no phased schedule.
	Phases cost.PhaseBreakdown
	// Faults carries the fault-mask accounting of a multi-faulty run;
	// nil for every fault-free scheme.
	Faults *FaultReport
}

// MultiContext runs the multiprocessor simulation of the d-dimensional
// guest Md(n, n, m) on the host Md(n, p, m): Theorem 4 at d = 1, and
// Theorem 1's d = 2 bound and its conjectured d = 3 case above that. It
// composes three mechanisms:
//
//  1. the initial data is rearranged so that originally adjacent
//     regions end up adjacent or one host region apart, which shrinks
//     every later distance p^(1/d)-fold. At d = 1 the data, viewed as
//     q = n/s strips of width s, is permuted by π = π2·π1 so that
//     originally adjacent strips are either adjacent or exactly q/p
//     strips apart (perm package);
//  2. Regime 1 relocates data down the levels of the domain recursion
//     (log2(n/(p·s)) levels at d = 1): per level, the total
//     (data × distance) moved is Θ(V·m/p^(1/d)) over V = n·steps dag
//     vertices, i.e. Θ(V·m/p^(1+1/d)) wall time per level, which is
//     Θ(n²m/p²) at d = 1;
//  3. Regime 2 executes span-s domains p at a time, each processor
//     exchanging the Θ(s^d) face values that cross to its neighbors as
//     messages at the host spacing (n/p)^(1/d). At d = 1 this is the
//     paper's explicit schedule: the Θ((n/ps)²) domains of type D(p·s)
//     are processed sequentially, each in 2p-1 stages in which every
//     processor executes one diamond D(s) of its zig-zag band
//     (Figure 2) — solo on odd stages, cooperating with a neighbor on
//     even stages, exchanging the Θ(s) broadcast values that cross the
//     shared diagonal as a message over distance n/p.
//
// At d = 1 the strip width is the paper's optimum s* (or
// MultiOptions.StripWidth); at d = 2 and 3 the span σ minimizes the
// resulting cost over powers of two up to (n/p)^(1/d), the
// implementation analog of the s* analysis (MultiOptions.SpanOverride
// ablates it). The paper states the d = 2 bound and the octahedral
// separator (Section 5) but defers the multiprocessor orchestration to
// the companion technical report, and only conjectures d = 3; there,
// with the four-dimensional separator in hand (lattice), the same
// mechanisms make the conjectured four-range structure of A(3, n, m, p)
// measurable.
//
// Fidelity: the guest state advances functionally (exactly); costs are
// charged per phase, with the per-domain execution kernel measured by a
// real BlockedContext run of the same dimension (per-address fidelity)
// and the relocation/exchange phases charged at the word-and-distance
// granularity derived in the comments of multiD1Schedule and
// multiSpanCost. See DESIGN.md's fidelity ladder.
//
// d must be 1, 2 or 3, and n and p must be d-shaped (perfect squares at
// d = 2, perfect cubes at d = 3) with p | n; a bad tuple gets a
// ParamError.
//
// The kernel calibration run, the span search, and the functional guest
// replay all poll cancellation cooperatively, and replay progress is
// reported to any attached Progress. Checks are host-side only, so a
// never-cancelled run's virtual times do not depend on ctx.
func MultiContext(ctx context.Context, d, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	if e := validateMulti(d, n, p, m, steps, opts); e != nil {
		return MultiResult{}, e
	}
	if d > 1 {
		return multiSpan(ctx, &multiGeoms[d], n, p, m, steps, prog, opts)
	}
	ec := newExecCtx(ctx)
	defer ec.publish()
	res, err := multiD1Schedule(ec, n, p, m, steps, prog, opts)
	if err != nil || p == 1 {
		// A failure, or the p = 1 fallback, which executed the guest
		// itself.
		return res, err
	}
	// Functional execution (exact): the schedule is a topological
	// execution of the same dag, so the state evolution is the guest's.
	if err := replayGuest(ec, &res.Result, 1, n, m, steps, prog); err != nil {
		return MultiResult{}, err
	}
	return res, nil
}

// multiD1Schedule is MultiContext at d = 1 without the functional
// replay: it plans Theorem 4's schedule for a validated tuple and
// charges it, returning a result whose outputs the caller fills. The
// degenerate p = 1 case runs the Theorem 3 machinery instead, which
// executes the guest and so returns its outputs too.
func multiD1Schedule(ec *execCtx, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	if p == 1 {
		// Degenerate case: Theorem 3's machinery. A single processor
		// exchanges no messages, so the delay model is immaterial.
		r, err := BlockedContext(ec.ctx, 1, n, m, steps, 0, prog)
		return MultiResult{Result: r, StripWidth: n}, err
	}
	g := &multiGeoms[1]
	s := opts.StripWidth
	if s <= 0 {
		s = analytic.RoundToPow2Divisor(analytic.OptimalS(n, m, p), n/p)
	}
	if s < 1 || (n/p)%s != 0 {
		return MultiResult{}, fmt.Errorf("simulate: strip width %d must divide n/p = %d", s, n/p)
	}
	q := n / s
	pi := perm.New(q, p)

	nf, pf, mf, sf := float64(n), float64(p), float64(m), float64(s)

	// The per-diamond execution kernel is measured from a real Theorem 3
	// execution, which carries the machinery's constant factor (stack
	// staging, read+write per moved word). The relocation and exchange
	// phases below are derived as word·distance counts with unit
	// constants; to keep the phases commensurate — as they would be if
	// one machine executed all of them — they are scaled by the kernel's
	// measured-over-theoretical constant κ.
	kernel, err := g.kernel(ec.ctx, s, m, prog)
	if err != nil {
		return MultiResult{}, err
	}
	kappa := kernel / g.theoryExec(sf, mf)
	if kappa < 1 {
		kappa = 1
	}

	// The rearranged relocation/exchange distance is certified by the
	// permutation itself: originally adjacent strips end up at most
	// MaxAdjacentDisplacement = q/p strips apart (property 1), i.e.
	// (q/p)·s = n/p guest distance — the p-fold reduction from the raw
	// Θ(n) scale. The ablated scheme forgoes it.
	//
	// Under a fault mask, every distance-proportional charge stretches
	// by the mask's detour bound and every image traversal by its memory
	// packing overhead; both factors are exactly 1.0 fault-free, keeping
	// the fault-free times bit-identical (see faultMuls).
	distMul, memMul := opts.faultMuls()
	relocDist := float64(pi.MaxAdjacentDisplacement()*s) * distMul
	if opts.NoRearrange {
		relocDist = nf * distMul
	}

	// Phase 1 quantities: Regime 1 relocation levels. Level k moves
	// 2^k·n·m words at geometric distance relocDist/2^k: the 2^k factors
	// cancel, so every level costs n·m·relocDist/p wall time per
	// processor — the paper's Θ(n²m/p²) with rearrangement. (A word
	// moved across guest-volume distance D occupies D·m memory
	// addresses, and f(x) = x/m, so the per-word cost is D independent
	// of m.)
	levels := 0
	if s < n/p {
		levels = int(math.Round(math.Log2(nf / (pf * sf))))
	}
	perLevelPerProc := kappa * nf * (mf * memMul) * relocDist / pf
	regime1 := make([]float64, levels)
	for k := range regime1 {
		regime1[k] = perLevelPerProc
	}

	// Phase 2 quantities: the (n/ps)² domains of D(p·s), 2p-1 stages
	// each: p-1 solo, p cooperating.
	cells := lattice.DiamondGrid(n, steps+1, p*s)
	numDomains := len(cells)
	exchDist := float64(pi.MaxAdjacentDisplacement()*s) * distMul
	if opts.NoRearrange {
		exchDist = nf / 2 * distMul
	}
	solo := float64(p - 1)
	coop := float64(p)
	var stageExtra float64
	exchCat := cost.Message
	if opts.NoCooperate {
		// Solo execution of shared diamonds: pull s·m remote words
		// through memory, each paying the exchange distance.
		stageExtra = kappa * g.faceSize(sf) * (mf * memMul) * exchDist
		exchCat = cost.Transfer
	} else {
		// Exchange Θ(s) broadcast values over the link, each paying
		// the full distance (no pipelining, as in the paper's
		// per-item accounting "in time O(s·n/p)").
		stageExtra = kappa * g.faceSize(sf) * exchDist
	}

	bank, prep := playSchedule(ec.tr, p, multiSchedule{
		// Phase 0: rearrangement. n·m words move distance Θ(n) with
		// p-fold parallelism: per processor, (n·m/p) words at average
		// distance n/2 — stretched by the fault detour and packing
		// factors like every other transfer.
		prep:    kappa * nf * (mf * memMul) / pf * (nf * distMul) / 2,
		hasPrep: true,
		regime1: regime1,
		domains: numDomains,
		exec:    (solo + coop) * kernel,
		exch:    coop * stageExtra,
		exchCat: exchCat,
	}, opts.delayModel())
	elapsed := bank.MaxNow() - prep

	return MultiResult{
		Result: Result{
			Time:   elapsed,
			Ledger: bank.Ledgers(),
			Steps:  steps,
		},
		PrepTime:      prep,
		StripWidth:    s,
		Regime1Levels: levels,
		Domains:       numDomains,
		Phases:        bank.Phases(),
	}, nil
}

// MultiD1CyclesContext simulates cycles·n guest steps by repeating the
// n-step simulation of MultiContext at d = 1 (the paper's "for larger
// values of Tn, it is sufficient to repeat the n-step simulation ⌈Tn/n⌉
// times"), so the one-time rearrangement cost amortizes: the reported
// Time includes the preprocessing once plus cycles executions, and the
// effective slowdown converges to the steady-state (n/p)·A(n, m, p) as
// cycles grows — "its cost gives a contribution to the slowdown that
// vanishes as the number of simulated steps increases" (Section 4.2).
//
// See MultiContext for the cancellation and progress contract. The
// n-step schedule is charged once and the guest is replayed once, for
// all cycles·n steps.
func MultiD1CyclesContext(ctx context.Context, n, p, m, cycles int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	if e := validateMulti(1, n, p, m, n, opts); e != nil {
		return MultiResult{}, e
	}
	if cycles < 1 || cycles > math.MaxInt/n {
		return MultiResult{}, perr("multi", "cycles", fmt.Sprintf("must be >= 1 with cycles·n steps fitting an int, n = %d", n), cycles)
	}
	ec := newExecCtx(ctx)
	defer ec.publish()
	res, err := multiD1Schedule(ec, n, p, m, n, prog, opts)
	if err != nil {
		return MultiResult{}, err
	}
	if err := replayGuest(ec, &res.Result, 1, n, m, cycles*n, prog); err != nil {
		return MultiResult{}, err
	}
	res.Time = res.PrepTime + cost.Time(cycles)*res.Time
	res.Steps = cycles * n
	return res, nil
}
