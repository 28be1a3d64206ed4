package simulate

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bsmp/internal/analytic"
	"bsmp/internal/cost"
	"bsmp/internal/guest"
	"bsmp/internal/network"
	"bsmp/internal/obs"
	"bsmp/internal/topology"
)

// This file is the multiprocessor orchestration engine behind
// MultiContext, mirroring what blocked_exec.go does for the uniprocessor
// executor: one geometry (multiGeom) states Theorem 1's cost shape in
// the mesh dimension d, and the engine owns kernel calibration +
// memoization, the span-minimizing phase-cost model for d >= 2, and the
// charging of the chosen schedule into a cost.Bank with per-phase
// attribution marks.
//
// Virtual-time contract: golden_test.go pins every multiprocessor Time
// bit-identical to the historical per-dimension orchestrators. Float
// addition and multiplication are not associative, so the engine
// preserves two properties of the original code exactly:
//
//   - every per-processor charge sequence (values and order) is
//     unchanged — playSchedule charges phase-major, but each processor
//     still sees the same charges in the same order, so each clock sums
//     the same floats in the same order;
//   - every cost formula keeps its original operand grouping: powers
//     are left-to-right products (pow: s³ is (s·s)·s), roots are
//     topology.Root (never math.Pow, which differs in the last ulp),
//     and multiSpanCost combines the terms in the historical factor
//     order. Span candidates are powers of two, for which the s^k
//     regroupings are exact in IEEE arithmetic.
//
// Phase attribution (cost.Bank.Mark) is pure snapshot bookkeeping and
// never touches a clock or ledger, so it cannot perturb times.

// multiGeom is the multiprocessor geometry of one mesh dimension. The
// cost shape is written once in d (the methods below and multiSpanCost);
// the fields hold what is not a formula of d. The d = 1 scheme keeps its
// own Theorem 4 planner (strip selection, the π rearrangement and the
// per-domain stage loop in multi.go) but draws its kernel, κ
// normalization and face size from the same geometry; the d = 2 and
// d = 3 schemes run entirely through multiSpan below.
type multiGeom struct {
	// d is the mesh dimension.
	d int
	// kernelFloor is the measured-kernel stand-in for degenerate spans
	// s < 2 (one vertex per step, executed in place).
	kernelFloor float64
	// calCap caps the span actually measured (0: no cap); larger spans
	// reuse the capped measurement scaled by volume and span (the
	// machinery constant has converged by the cap).
	calCap int
	// calGuest is the fixed calibration guest, run on the d-mesh of the
	// calibration span; nil measures the caller's program. Either way
	// the calibration program's fingerprint is part of the kernel key,
	// which makes the fixed-guest assumption explicit rather than
	// silent (TestSpanKernelFixedGuest).
	calGuest *guest.MixCA
}

// multiGeoms holds the geometry of dimension d at index d.
//
// d = 1 calibrates on the caller's program: prog.Address picks the
// memory cell touched per vertex and an optional MemUser shrinks the
// relocated image from m to m' words, so the diamond kernel is
// per-program (TestDiamondKernelProgramDependence). d = 2 and d = 3
// calibrate on the fixed MixCA guest, so their cache entries depend
// only on (σ, m) and are shared across callers.
var multiGeoms = [...]multiGeom{
	1: {d: 1, kernelFloor: 4},
	2: {d: 2, kernelFloor: 8, calCap: 16, calGuest: &guest.MixCA{Seed: 42}},
	3: {d: 3, kernelFloor: 8, calCap: 8, calGuest: &guest.MixCA{Seed: 42}},
}

// pow is x^k for k >= 1 as the left-to-right product x·x·…·x, the
// grouping the cost formulas fix: s³ is (s·s)·s.
func pow[T int | float64](x T, k int) T {
	r := x
	for i := 1; i < k; i++ {
		r *= x
	}
	return r
}

// regionSide is the per-processor region side (n/p)^(1/d): the span
// search bound, and the rearranged exchange distance.
func (g *multiGeom) regionSide(nf, pf float64) float64 { return topology.Root(g.d, nf/pf) }

// faceSize is the per-kernel face-exchange word count s^d.
func (g *multiGeom) faceSize(sf float64) float64 { return pow(sf, g.d) }

// theoryExec is the closed-form execution estimate of one span-s kernel,
// (s^(d+1)/d)·min(s, m·Log(s^d/m)), with divisor 2 at d = 1 (a diamond
// D(s) holds about s²/2 vertices). It normalizes the measured kernel
// into κ.
func (g *multiGeom) theoryExec(sf, mf float64) float64 {
	return (pow(sf, g.d+1) / float64(max(g.d, 2))) * math.Min(sf, mf*analytic.Log(pow(sf, g.d)/mf))
}

// calProg is the program a span-cal calibration measures.
func (g *multiGeom) calProg(cal int, prog network.Program) network.Program {
	if g.calGuest == nil {
		return prog
	}
	an := guest.AsNetwork{G: *g.calGuest}
	if g.d == 2 {
		an.Side = cal
	} else {
		an.CubeSide = cal
	}
	return an
}

// kernelKey identifies a measured execution kernel in the unified cache:
// dimension, span, memory density, and the fingerprint of the calibration
// program that was (or would be) measured. The d = 1 scheme calibrates on
// the caller's program, so its entries vary per guest
// (TestDiamondKernelProgramDependence); the d = 2/3 schemes calibrate on
// a fixed internal guest, so their entries are shared across callers.
type kernelKey struct {
	d, s, m int
	prog    string
}

// Measured kernels are memoized in the unified memo store (memo.go)
// under memoKernel keys. Long-lived daemons see an unbounded stream of
// (d, s, m, program) tuples — the d = 1 scheme keys on the caller's
// program — so the store bounds its entries (SetMemoCapacity). Kernels
// are deterministic re-measurements of small calibration guests:
// evicting one costs only recalibration time and can never change a
// result, so the store's FIFO eviction suffices.

// kernelLoad and kernelStore adapt the unified store to float64 kernels.
func kernelLoad(k kernelKey) (float64, bool) {
	v, ok := memo.load(memoKernel, memoLevel(k.s), k)
	if !ok {
		return 0, false
	}
	return v.(float64), true
}

func kernelStore(k kernelKey, v float64) {
	memo.store(memoKernel, memoLevel(k.s), k, v)
}

// progFingerprint renders a program's identity for the memo and replay
// keys. Programs here are small comparable config structs
// (guest.AsNetwork values and the like), so the Go-syntax rendering
// identifies their behavior. It must name the types of nested interface
// values too: plain %+v prints AsNetwork{G: MixCA{Seed: 5}} and
// AsNetwork{G: Rule90{Seed: 5}} alike.
func progFingerprint(prog network.Program) string {
	return fmt.Sprintf("%#v", prog)
}

// calFlight coalesces concurrent measurements of the same kernel key.
// A server-side sweep fans a parameter grid across the worker pool; on a
// cold cache every grid point sharing a (d, span, m, program) tuple
// would otherwise launch its own identical calibration run. One leader
// measures; concurrent duplicates wait for the stored value.
var calFlight = struct {
	mu sync.Mutex
	m  map[kernelKey]chan struct{}
}{m: make(map[kernelKey]chan struct{})}

// calMeasurements counts actual calibration executions process-wide —
// the observable the coalescing test pins (concurrent identical runs
// must not multiply it).
var calMeasurements atomic.Int64

// kernel measures (or recalls) the per-domain execution kernel for span s
// and density m: a real BlockedContext run of the dimension's span-cal,
// cal-step calibration guest, halved (the calibration volume holds about
// two domains' worth of vertices), and scaled when cal < s by dag volume
// s^(d+1) times the ~linear per-vertex span growth. Concurrent requests
// for the same key coalesce onto one measurement.
func (g *multiGeom) kernel(ctx context.Context, s, m int, prog network.Program) (float64, error) {
	cal := s
	if g.calCap > 0 && cal > g.calCap {
		cal = g.calCap
	}
	calProg := g.calProg(cal, prog)
	key := kernelKey{g.d, s, m, progFingerprint(calProg)}
	for {
		// The memo check and the leader election share one critical
		// section. A leader stores its kernel before it removes its
		// flight under this lock, so no goroutine can miss just before
		// the store and then, finding no flight, measure again.
		calFlight.mu.Lock()
		if v, ok := kernelLoad(key); ok {
			calFlight.mu.Unlock()
			return v, nil
		}
		if ch, ok := calFlight.m[key]; ok {
			// Another goroutine is measuring this key: wait for it, then
			// re-check the cache. A leader that failed (cancellation)
			// stores nothing, and the retry elects a new leader under
			// this goroutine's own context.
			calFlight.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		ch := make(chan struct{})
		calFlight.m[key] = ch
		calFlight.mu.Unlock()
		v, err := g.measureKernel(ctx, key, cal, s, m, calProg)
		calFlight.mu.Lock()
		delete(calFlight.m, key)
		calFlight.mu.Unlock()
		close(ch)
		return v, err
	}
}

// measureKernel performs the actual calibration run for kernel() — the
// leader's half of the coalescing protocol.
func (g *multiGeom) measureKernel(ctx context.Context, key kernelKey, cal, s, m int, calProg network.Program) (float64, error) {
	if s < 2 {
		kernelStore(key, g.kernelFloor)
		return g.kernelFloor, nil
	}
	calMeasurements.Add(1)
	// Trace the actual measurement (cache hits return above without a
	// span): calibration runs dominate a cold run's wall time, and the
	// blocked executor the calibration drives nests its own "block"
	// spans underneath.
	sp := obs.FromContext(ctx).Start("calibrate")
	res, err := BlockedContext(ctx, g.d, pow(cal, g.d), m, cal, 0, calProg)
	if err != nil {
		sp.End()
		return 0, err
	}
	k := float64(res.Time) / 2
	if cal != s {
		k *= math.Pow(float64(s)/float64(cal), float64(g.d+2))
	}
	if sp != nil {
		sp.SetAttr("d", float64(g.d))
		sp.SetAttr("span", float64(s))
		sp.SetAttr("m", float64(m))
		sp.SetAttr("kernel", k)
		sp.End()
	}
	kernelStore(key, k)
	return k, nil
}

// multiSchedule is the evaluated orchestration of one multiprocessor run:
// the identical per-processor charge quantities of each phase of the
// Theorem 4 / Theorem 1 schedule. The d = 1 planner emits per-level and
// per-domain charges; the d >= 2 span model emits one aggregated charge
// per phase.
type multiSchedule struct {
	// prep is the one-time rearrangement Transfer charge per processor;
	// hasPrep gates the phase (and its join) entirely.
	prep    float64
	hasPrep bool
	// regime1 holds the Regime 1 relocation Transfer charges per
	// processor, one element per charge (d = 1: one per level).
	regime1 []float64
	// domains is the number of Regime 2 rounds; per round every
	// processor charges exec under Compute and exch under exchCat.
	domains int
	exec    float64
	exch    float64
	exchCat cost.Category
}

// playSchedule charges sch into a fresh p-processor bank with phase marks
// under delay model dm (nil = lockstep) and returns the bank and the
// preprocessing finish time (0 without prep). It is the one schedule
// player, for lockstep and the Θ model alike.
//
// The schedule runs as communication-closed waves, one per segment.
// Every distance-proportional charge (rearrangement and Regime 1
// transfers, Regime 2 exchanges) goes through Bank.ChargeDelayed, which
// stretches it by a factor in [1, Θ] drawn from (seed, proc, seq);
// compute charges are never stretched — bounded-speed propagation delays
// messages, not local work. A Barrier join closes the rearrangement
// wave, the Regime 1 wave and every exchange wave, idling stragglers to
// the wave's completion and charging the wait to Sync inside that wave's
// phase. The compute wave needs no join: it starts from joined clocks
// and charges every processor the same unstretched amount.
//
// Why this is exact: charges are phase-major, but each processor sees
// the same charges in the same order as in the historical per-processor
// orchestrators, so each clock sums the same floats in the same order
// (see the contract note above). Delay draws are keyed by processor and
// per-processor sequence, so the order in which processors are visited
// cannot change a draw. Without a model (or at Θ = 1, where every factor
// is exactly 1) every processor's charges are identical, each join meets
// equal clocks, and Barrier charges nothing.
//
// When tr is non-nil, every schedule segment is additionally wrapped in
// a "phase:<name>" span under one "schedule" parent, annotated with the
// makespan advance ("vtime") and the per-category ledger deltas the
// segment produced. Spans mirror the Mark calls one-for-one, so the
// phase-span vtime deltas telescope to the final makespan
// (= Time + PrepTime) exactly like the PhaseBreakdown. Tracing reads
// bank snapshots and never charges anything, so the charge sequence —
// and with it every golden virtual time — is identical with tr nil or
// attached.
func playSchedule(tr *obs.Tracer, p int, sch multiSchedule, dm *cost.ThetaModel) (*cost.Bank, cost.Time) {
	bank := cost.NewBank(p)
	bank.SetDelayModel(dm)
	sched := tr.Start("schedule")
	// phase runs one schedule segment under a span; with no tracer it
	// is a plain call.
	phase := func(name string, f func()) {
		sp := tr.Start("phase:" + name)
		if sp == nil {
			f()
			return
		}
		at0 := bank.MaxNow()
		l0 := bank.Ledgers()
		f()
		sp.SetAttr("vtime", bank.MaxNow()-at0)
		l1 := bank.Ledgers()
		delta := l1.Sub(&l0)
		for _, c := range cost.Categories() {
			if t := delta.Total(c); t != 0 {
				sp.SetAttr(c.String(), t)
			}
		}
		sp.End()
	}

	bank.Mark(cost.PhaseRearrange)
	var prep cost.Time
	phase(cost.PhaseRearrange, func() {
		if sch.hasPrep {
			for i := 0; i < p; i++ {
				bank.ChargeDelayed(i, cost.Transfer, sch.prep)
			}
			prep = bank.Barrier()
		}
	})
	bank.Mark(cost.PhaseRegime1)
	phase(cost.PhaseRegime1, func() {
		for _, c := range sch.regime1 {
			for i := 0; i < p; i++ {
				bank.ChargeDelayed(i, cost.Transfer, c)
			}
		}
		bank.Barrier()
	})
	for r := 0; r < sch.domains; r++ {
		bank.Mark(cost.PhaseRegime2Exec)
		phase(cost.PhaseRegime2Exec, func() {
			for i := 0; i < p; i++ {
				bank.Proc(i).Charge(cost.Compute, sch.exec)
			}
		})
		bank.Mark(cost.PhaseRegime2Exchange)
		phase(cost.PhaseRegime2Exchange, func() {
			for i := 0; i < p; i++ {
				bank.ChargeDelayed(i, sch.exchCat, sch.exch)
			}
			bank.Barrier()
		})
	}
	if sched != nil {
		sched.SetAttr("vtime", bank.MaxNow())
		sched.SetAttr("domains", float64(sch.domains))
		if dm != nil {
			sched.SetAttr("theta", dm.Theta())
		}
		sched.End()
	}
	return bank, prep
}

// multiSpanCost evaluates the d >= 2 phase model for span s, returning
// the total per-processor time, the Regime 1 level count, and the
// (relocation, execution, exchange) breakdown. The formulas are the
// d-generic Theorem 1 shape; see MultiContext for their derivation. The
// options' fault stretch factors multiply the distance-proportional
// (detour) and image-traversal (packing) terms;
// fault-free both are exactly 1.0 and the products are bit-identical to
// the unstretched formulas (see MultiOptions.faultMuls).
func multiSpanCost(ctx context.Context, g *multiGeom, n, p, m, steps, s int, opts MultiOptions) (float64, int, [3]float64, error) {
	noRearrange := opts.NoRearrange
	distMul, memMul := opts.faultMuls()
	nf, pf, mf, sf := float64(n), float64(p), float64(m), float64(s)
	vol := nf * float64(steps+1)
	regionSide := g.regionSide(nf, pf)

	kernel, err := g.kernel(ctx, s, m, nil)
	if err != nil {
		return 0, 0, [3]float64{}, err
	}
	// κ keeps the relocation/exchange phases commensurate with the
	// measured kernel's machinery constant (same rationale as d = 1's
	// planner).
	theory := g.theoryExec(sf, mf)
	kap := kernel / theory
	if kap < 1 {
		kap = 1
	}

	levels := 0
	if sf < regionSide {
		levels = int(math.Round(math.Log2(regionSide / sf)))
	}
	// Regime 1: per level, the V·m words cross the d+1 separator faces
	// at a distance the rearrangement shrinks by p^(1/d), p processors
	// at a time.
	distRed := topology.Root(g.d, pf)
	if noRearrange {
		distRed = 1
	}
	reloc := float64(levels) * kap * float64(g.d+1) * vol * (mf * memMul) * distMul / (distRed * pf)

	// Regime 2: (d+2)·V/s^(d+1) span-s kernels tile the dag, p at a
	// time; each exchanges its s^d face values at the region side, or
	// at n^(1/d)/2 without the rearrangement.
	numKernelsPerProc := float64(g.d+2) * vol / pow(sf, g.d+1) / pf
	exec := numKernelsPerProc * kernel
	exchDist := regionSide * distMul
	if noRearrange {
		exchDist = topology.Root(g.d, nf) / 2 * distMul
	}
	exch := numKernelsPerProc * kap * g.faceSize(sf) * exchDist

	return reloc + exec + exch, levels, [3]float64{reloc, exec, exch}, nil
}

// validateMulti makes the checks every multiprocessor engine entry
// point shares: the guest geometry with at least one step, a host p
// that divides n and is itself a d-mesh (a perfect square at d = 2, a
// cube at d = 3), and a valid Θ. It also refuses a fault density: only
// the fault-admitting registry row plans a mask, and it consumes Faults
// before it calls an engine.
func validateMulti(d, n, p, m, steps int, opts MultiOptions) *ParamError {
	if e := validateGuest("multi", d, n, m, steps, 1); e != nil {
		return e
	}
	if p < 1 || p > n || n%p != 0 {
		return perr("multi", "p", fmt.Sprintf("must lie in [1, n] and divide n = %d", n), p)
	}
	if e := shapeError("multi", "p", d, p); e != nil {
		return e
	}
	if e := validateTheta("multi", opts.Theta); e != nil {
		return e
	}
	if opts.Faults != 0 {
		return perrF("multi", "faults", "engine entry points take no fault density; use scheme multi-faulty", opts.Faults)
	}
	return nil
}

// multiSpan is the d >= 2 orchestrator of a validated tuple: minimize
// multiSpanCost over power-of-two spans (or the override), charge the
// chosen schedule with phase attribution, and advance the guest
// functionally (exactly).
func multiSpan(ctx context.Context, g *multiGeom, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	regionSide := int(g.regionSide(float64(n), float64(p)))
	if regionSide < 1 {
		regionSide = 1
	}

	// Candidate spans: powers of two up to the per-processor region side.
	var spans []int
	for s := 2; s <= regionSide; s *= 2 {
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		spans = []int{2}
	}
	if opts.SpanOverride > 0 {
		spans = []int{opts.SpanOverride}
	}

	best := math.Inf(1)
	bestSpan := spans[0]
	bestLevels := 0
	var bestBreak [3]float64
	ec := newExecCtx(ctx)
	defer ec.publish()
	// The span search is traced as one "plan" span; the kernel
	// calibrations it triggers nest their "calibrate" spans underneath.
	plan := ec.tr.Start("plan")
	for _, s := range spans {
		if err := ec.checkpoint(); err != nil {
			return MultiResult{}, err
		}
		total, levels, brk, err := multiSpanCost(ctx, g, n, p, m, steps, s, opts)
		if err != nil {
			return MultiResult{}, err
		}
		if total < best {
			best, bestSpan, bestLevels, bestBreak = total, s, levels, brk
		}
	}
	if plan != nil {
		plan.SetAttr("candidates", float64(len(spans)))
		plan.SetAttr("span", float64(bestSpan))
		plan.End()
	}

	// Charge the chosen schedule into a bank for ledger and phase
	// attribution.
	bank, _ := playSchedule(ec.tr, p, multiSchedule{
		regime1: []float64{bestBreak[0]},
		domains: 1,
		exec:    bestBreak[1],
		exch:    bestBreak[2],
		exchCat: cost.Message,
	}, opts.delayModel())

	res := Result{Time: bank.MaxNow(), Ledger: bank.Ledgers(), Steps: steps}
	if err := replayGuest(ec, &res, g.d, n, m, steps, prog); err != nil {
		return MultiResult{}, err
	}
	return MultiResult{
		Result:        res,
		Span:          bestSpan,
		Regime1Levels: bestLevels,
		Phases:        bank.Phases(),
	}, nil
}
