package simulate

import (
	"context"
	"math"

	"bsmp/internal/analytic"
	"bsmp/internal/guest"
	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// multiGeomD2 is the d = 2 geometry spec consumed by the shared
// multiprocessor engine (multi_exec.go): octahedral kernels of span σ
// hold ~σ³ dag vertices and exchange ~σ² face values; the 2-D
// rearrangement buys a √p distance reduction.
//
// Kernel calibration: a real BlockedD2Context run of a span-σ, σ-step guest
// with density m, halved (the σ × σ × σ box holds about two octahedra's worth
// of vertices). Spans are capped at 16 for calibration (the machinery constant
// has converged by then) and scaled by volume. Unlike d = 1, the calibration
// guest is fixed internally — never supplied by the caller — so cache entries
// depend only on (σ, m) plus the fixed fingerprint; the assumption is explicit
// in the unified cache key and pinned by TestSpanKernelFixedGuest.
var multiGeomD2 = &multiGeom{
	d:           2,
	kernelFloor: 8,
	calSpan: func(s int) int {
		if s > 16 {
			return 16
		}
		return s
	},
	calProg: func(cal int, _ network.Program) network.Program {
		return guest.AsNetwork{G: guest.MixCA{Seed: 42}, Side: cal}
	},
	calRun: func(ctx context.Context, cal, m int, prog network.Program) (Result, error) {
		return BlockedD2Context(ctx, cal*cal, m, cal, 0, prog)
	},
	// Scale by dag volume (cal²·cal -> σ²·σ); the per-vertex cost is
	// span-dominated and grows ~linearly, so scale that too.
	// The distance geometry is the mesh's, via the dimension-matched
	// root (topology.Root keeps the historical math.Sqrt form exactly):
	// region side = per-processor spacing scale (n/p)^(1/2), the
	// rearrangement's distance reduction p^(1/2), the raw exchange
	// distance n^(1/2)/2.
	scaleExp:      4,
	checkShape:    func(n int) *ParamError { return shapeError("multi", "n", 2, n) },
	regionSideInt: func(n, p int) int { return int(topology.Root(2, float64(n)/float64(p))) },
	regionSide:    func(nf, pf float64) float64 { return topology.Root(2, nf/pf) },
	distRed:       func(pf float64) float64 { return topology.Root(2, pf) },
	rawExchDist:   func(nf float64) float64 { return topology.Root(2, nf) / 2 },
	relocCoeff:    3,
	kernelCoeff:   4,
	kernelVol:     func(sf float64) float64 { return sf * sf * sf },
	faceSize:      func(sf float64) float64 { return sf * sf },
	theoryExec: func(sf, mf float64) float64 {
		return (sf * sf * sf / 2) * math.Min(sf, mf*analytic.Log(sf*sf/mf))
	},
}

// MultiD2Context runs the d = 2 case of Theorem 1: simulating M2(n, n, m) on
// M2(n, p, m). The paper states the d = 2 bound and the octahedral
// separator (Section 5) but defers the multiprocessor orchestration to the
// companion technical report, so this implementation composes the same
// three mechanisms as MultiD1Context in two-dimensional geometry:
//
//   - Regime 1 relocation: at every level, the total (data × distance)
//     moved is Θ(V·m/√p) (V = n·steps dag vertices; distances shrink by
//     √p thanks to the 2-D rearrangement), i.e. Θ(V·m/p^(3/2)) wall time
//     per level;
//   - Regime 2 execution: Θ(V/σ³) octahedral/tetrahedral kernels of span
//     σ, p at a time; the kernel cost is measured for every (σ, m) by the
//     real d = 2 blocked executor (BlockedD2Context) running a σ-sided,
//     σ-step guest;
//   - cooperation: each kernel exchanges its Θ(σ²) face values with
//     neighbor processors at the host spacing (n/p)^(1/2).
//
// The span σ is chosen by minimizing the resulting cost over powers of
// two (the implementation analog of the paper's s* analysis); pass
// SpanOverride to ablate. Functionally the guest advances exactly.
// n and p must be perfect squares with p | n.
//
// See MultiD1Context for the cancellation and progress contract.
func MultiD2Context(ctx context.Context, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	return multiSpan(ctx, multiGeomD2, n, p, m, steps, prog, opts)
}
