package simulate

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bsmp/internal/cost"
	"bsmp/internal/network"
	"bsmp/internal/obs"
)

// This file is the multiprocessor orchestration engine shared by
// MultiD1Context, MultiD2Context and MultiD3Context, mirroring what
// blocked_exec.go does for the uniprocessor executors: the per-dimension files
// supply a geometry spec (multiGeom) and the engine owns kernel calibration +
// memoization, the span-minimizing phase-cost model for d >= 2, and the
// charging of the chosen schedule into a cost.Bank with per-phase attribution
// marks.
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
//   - every cost formula keeps its original operand grouping — the spec
//     carries closures (regionSide, kernelVol, faceSize, theoryExec)
//     whose bodies are the verbatim per-dimension expressions, and
//     multiSpanCost combines them in the historical factor order. Span
//     candidates are powers of two, for which the s^k regroupings are
//     exact in IEEE arithmetic.
//
// Phase attribution (cost.Bank.Mark) is pure snapshot bookkeeping and
// never touches a clock or ledger, so it cannot perturb times.

// multiGeom is the per-dimension surface of the multiprocessor engine.
// The d = 1 scheme keeps its own Theorem 4 planner (strip selection, the
// π rearrangement and per-domain stage loop in multi.go) but draws its
// kernel, κ normalization and face size from the same spec; the d = 2 and
// d = 3 schemes run entirely through multiSpan below. Fields not used by
// the d = 1 planner are nil there.
type multiGeom struct {
	// d is the mesh dimension.
	d int

	// --- kernel calibration (shared cache, satellite: one fingerprinted key) ---

	// kernelFloor is the measured-kernel stand-in for degenerate spans
	// s < 2 (one vertex per step, executed in place).
	kernelFloor float64
	// calSpan caps the span actually measured; larger spans reuse the
	// capped measurement scaled by scaleExp (the machinery constant has
	// converged by the cap).
	calSpan func(s int) int
	// calProg selects the calibration guest. d = 1 measures the caller's
	// program (per-program kernels — MemUser guests relocate smaller
	// images); d = 2/3 use a fixed internal MixCA guest, so their cache
	// entries are caller-independent by construction. Either way the
	// calibration program's fingerprint is part of the cache key, which
	// makes the d = 2/3 fixed-guest assumption explicit rather than
	// silent (TestSpanKernelFixedGuest).
	calProg func(cal int, prog network.Program) network.Program
	// calRun invokes the dimension's blocked executor on a span-cal,
	// cal-step guest; the kernel is half the measured time (the
	// calibration volume holds about two domains' worth of vertices).
	// The context threads cancellation into the blocked recursion, so a
	// long calibration run is preemptible like any other simulation.
	calRun func(ctx context.Context, cal, m int, prog network.Program) (Result, error)
	// scaleExp is the volume/span scaling exponent applied when
	// calSpan(s) < s: dag volume s^(d+1) times the ~linear per-vertex
	// span growth.
	scaleExp float64

	// --- cost geometry (Theorem 1's d-generic shape) ---

	// checkShape validates the mesh side (perfect square/cube),
	// returning a typed ParamError on a bad shape; nil = no constraint
	// (d = 1).
	checkShape func(n int) *ParamError
	// regionSideInt is the per-processor region side (n/p)^(1/d) as the
	// span search bound.
	regionSideInt func(n, p int) int
	// regionSide is (n/p)^(1/d) in the cost formulas — also the
	// rearranged exchange distance.
	regionSide func(nf, pf float64) float64
	// distRed is the rearrangement's distance-reduction factor p^(1/d).
	distRed func(pf float64) float64
	// rawExchDist is the exchange distance without rearrangement,
	// n^(1/d)/2.
	rawExchDist func(nf float64) float64
	// relocCoeff is the per-level Regime 1 constant (the d+1 separator
	// faces crossed per relocated word).
	relocCoeff float64
	// kernelCoeff scales the kernel count: kernelCoeff·V/kernelVol(s)
	// span-s kernels tile the volume-V dag.
	kernelCoeff float64
	// kernelVol is the dag volume of one span-s kernel, s^(d+1).
	kernelVol func(sf float64) float64
	// faceSize is the per-kernel face-exchange word count, s^d.
	faceSize func(sf float64) float64
	// theoryExec is the closed-form kernel execution estimate
	// (s^(d+1)/d)·min(s, m·Log(s^d/m)) normalizing the measured kernel
	// into κ.
	theoryExec func(sf, mf float64) float64
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
// and density m: a real blocked-executor run of the dimension's span-cal,
// cal-step calibration guest, halved, and volume-scaled when cal < s.
// Concurrent requests for the same key coalesce onto one measurement.
func (g *multiGeom) kernel(ctx context.Context, s, m int, prog network.Program) (float64, error) {
	cal := g.calSpan(s)
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
	res, err := g.calRun(ctx, cal, m, calProg)
	if err != nil {
		sp.End()
		return 0, err
	}
	k := float64(res.Time) / 2
	if cal != s {
		k *= math.Pow(float64(s)/float64(cal), g.scaleExp)
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
// per-domain charges with a barrier after every domain; the d >= 2 span
// model emits one aggregated charge per phase.
type multiSchedule struct {
	// prep is the one-time rearrangement Transfer charge per processor;
	// hasPrep gates the phase (and its barrier) entirely.
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
	// roundBarrier synchronizes after every Regime 2 round (the d = 1
	// domains are sequential); otherwise one final barrier closes the
	// run.
	roundBarrier bool
}

// playSchedule charges sch into a fresh p-processor bank with phase marks
// and returns the bank and the preprocessing finish time (0 without
// prep). Charges are phase-major but per-processor order matches the
// historical orchestrators exactly (see the contract note above).
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
func playSchedule(tr *obs.Tracer, p int, sch multiSchedule) (*cost.Bank, cost.Time) {
	bank := cost.NewBank(p)
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
				bank.Proc(i).Charge(cost.Transfer, sch.prep)
			}
			prep = bank.Barrier()
		}
	})
	bank.Mark(cost.PhaseRegime1)
	phase(cost.PhaseRegime1, func() {
		for _, c := range sch.regime1 {
			for i := 0; i < p; i++ {
				bank.Proc(i).Charge(cost.Transfer, c)
			}
		}
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
				bank.Proc(i).Charge(sch.exchCat, sch.exch)
			}
			if sch.roundBarrier {
				// The round barrier's stalls are attributed to the
				// exchange phase, matching the Mark bookkeeping.
				bank.Barrier()
			}
		})
	}
	if !sch.roundBarrier {
		bank.Barrier()
	}
	if sched != nil {
		sched.SetAttr("vtime", bank.MaxNow())
		sched.SetAttr("domains", float64(sch.domains))
		sched.End()
	}
	return bank, prep
}

// multiSpanCost evaluates the d >= 2 phase model for span s, returning
// the total per-processor time, the Regime 1 level count, and the
// (relocation, execution, exchange) breakdown. The formulas are the
// d-generic Theorem 1 shape; see the per-dimension doc comments for their
// derivations. The options' fault stretch factors multiply the
// distance-proportional (detour) and image-traversal (packing) terms;
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
	// measured kernel's machinery constant (same rationale as MultiD1Context).
	theory := g.theoryExec(sf, mf)
	kap := kernel / theory
	if kap < 1 {
		kap = 1
	}

	levels := 0
	if sf < regionSide {
		levels = int(math.Round(math.Log2(regionSide / sf)))
	}
	distRed := g.distRed(pf)
	if noRearrange {
		distRed = 1
	}
	reloc := float64(levels) * kap * g.relocCoeff * vol * (mf * memMul) * distMul / (distRed * pf)

	numKernelsPerProc := g.kernelCoeff * vol / g.kernelVol(sf) / pf
	exec := numKernelsPerProc * kernel
	exchDist := regionSide * distMul
	if noRearrange {
		exchDist = g.rawExchDist(nf) * distMul
	}
	exch := numKernelsPerProc * kap * g.faceSize(sf) * exchDist

	return reloc + exec + exch, levels, [3]float64{reloc, exec, exch}, nil
}

// multiSpan is the shared d >= 2 orchestrator: validate the mesh shape,
// minimize multiSpanCost over power-of-two spans (or the override),
// charge the chosen schedule with phase attribution, and advance the
// guest functionally (exactly).
func multiSpan(ctx context.Context, g *multiGeom, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	if p < 1 || n < p || n%p != 0 {
		return MultiResult{}, fmt.Errorf("simulate: need p | n, got n=%d p=%d", n, p)
	}
	if m < 1 {
		return MultiResult{}, perr("multi", "m", "memory density must be >= 1", m)
	}
	if steps < 1 {
		return MultiResult{}, perr("multi", "steps", "guest step count must be >= 1", steps)
	}
	if e := validateTheta("multi", opts.Theta); e != nil {
		return MultiResult{}, e
	}
	if e := g.checkShape(n); e != nil {
		return MultiResult{}, e
	}
	regionSide := g.regionSideInt(n, p)
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
	bank, _ := playScheduleAuto(ec.tr, p, multiSchedule{
		regime1: []float64{bestBreak[0]},
		domains: 1,
		exec:    bestBreak[1],
		exch:    bestBreak[2],
		exchCat: cost.Message,
	}, opts.delayModel())

	outs, mems, err := replayGuest(ec, g.d, n, m, steps, prog)
	if err != nil {
		return MultiResult{}, err
	}
	return MultiResult{
		Result: Result{
			Outputs:  outs,
			Memories: mems,
			Time:     bank.MaxNow(),
			Ledger:   bank.Ledgers(),
			Steps:    steps,
		},
		Span:          bestSpan,
		Regime1Levels: bestLevels,
		Phases:        bank.Phases(),
	}, nil
}
