package simulate

import (
	"context"
	"math"

	"bsmp/internal/analytic"
	"bsmp/internal/guest"
	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// multiGeomD3 is the d = 3 geometry spec consumed by the shared
// multiprocessor engine (multi_exec.go): span-σ kernels over the Box6
// separator hold ~σ⁴ dag vertices and exchange ~σ³ face values; the 3-D
// rearrangement buys a p^(1/3) distance reduction.
//
// Kernel calibration: a real BlockedD3Context run of a span-σ, σ-step cube
// guest, halved; spans are capped at 8 (the machinery constant has
// converged) and scaled by volume. As with d = 2, the calibration guest
// is the fixed internal MixCA program, so cache entries depend only on
// (σ, m) plus the fixed fingerprint (TestSpanKernelFixedGuest).
var multiGeomD3 = &multiGeom{
	d:           3,
	kernelFloor: 8,
	calSpan: func(s int) int {
		if s > 8 {
			return 8
		}
		return s
	},
	calProg: func(cal int, _ network.Program) network.Program {
		return guest.AsNetwork{G: guest.MixCA{Seed: 42}, CubeSide: cal}
	},
	calRun: func(ctx context.Context, cal, m int, prog network.Program) (Result, error) {
		return BlockedD3Context(ctx, cal*cal*cal, m, cal, 0, prog)
	},
	// Distance geometry via the dimension-matched root (topology.Root
	// keeps the historical math.Cbrt form exactly — NOT math.Pow, which
	// differs in the last ulp); see the multiGeomD2 note.
	scaleExp:      5,
	checkShape:    func(n int) *ParamError { return shapeError("multi", "n", 3, n) },
	regionSideInt: func(n, p int) int { return int(topology.Root(3, float64(n)/float64(p))) },
	regionSide:    func(nf, pf float64) float64 { return topology.Root(3, nf/pf) },
	distRed:       func(pf float64) float64 { return topology.Root(3, pf) },
	rawExchDist:   func(nf float64) float64 { return topology.Root(3, nf) / 2 },
	relocCoeff:    4,
	kernelCoeff:   5,
	kernelVol:     func(sf float64) float64 { return sf * sf * sf * sf },
	faceSize:      func(sf float64) float64 { return sf * sf * sf },
	theoryExec: func(sf, mf float64) float64 {
		return (sf * sf * sf * sf / 3) * math.Min(sf, mf*analytic.Log(sf*sf*sf/mf))
	},
}

// MultiD3Context evaluates the conjectured d = 3 case of Theorem 1: simulating
// M3(n, n, m) on M3(n, p, m). The paper only conjectures this case; with
// the Box6 separator in hand (lattice), the same three mechanisms compose
// in three-dimensional geometry:
//
//   - Regime 1 relocation: per level, total (data × distance) is
//     Θ(V·m/p^(1/3)) with the 3-D rearrangement's distance reduction,
//     i.e. Θ(V·m/p^(4/3)) wall time per level;
//   - Regime 2 execution: Θ(V/σ⁴) span-σ kernels, p at a time, each
//     measured by the real d = 3 blocked executor (BlockedD3Context);
//   - cooperation: each kernel exchanges its Θ(σ³) face values with
//     neighbors at the host spacing (n/p)^(1/3).
//
// The span σ is cost-minimized over powers of two. Functionally the guest
// advances exactly. This is model-grade in the same sense as MultiD2Context
// (DESIGN.md fidelity level L2); its value is making the conjectured
// four-range structure of A(3, n, m, p) measurable. n and p must be
// perfect cubes with p | n.
//
// See MultiD1Context for the cancellation and progress contract.
func MultiD3Context(ctx context.Context, n, p, m, steps int, prog network.Program, opts MultiOptions) (MultiResult, error) {
	return multiSpan(ctx, multiGeomD3, n, p, m, steps, prog, opts)
}
