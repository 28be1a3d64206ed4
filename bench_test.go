package bsmp

// One benchmark per reproduced table/figure (see DESIGN.md § 4). Each
// benchmark regenerates its experiment's data and reports the headline
// model metric (virtual-time slowdowns or measured/bound ratios) via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation. Wall time per iteration is kept modest; cmd/experiments
// runs the full-size sweeps.

import (
	"context"
	"testing"

	"bsmp/internal/analytic"
	"bsmp/internal/exp"
	"bsmp/internal/guest"
	"bsmp/internal/hram"
	"bsmp/internal/simulate"
)

func benchProg() Program { return AsNetwork{G: MixCA{Seed: 9}} }

// BenchmarkNaiveSlowdownD1 reproduces E-P1 (d = 1): Proposition 1's
// (n/p)² naive slowdown.
func BenchmarkNaiveSlowdownD1(b *testing.B) {
	n := 128
	var slow float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.NaiveContext(context.Background(), 1, n, 1, 1, 8, benchProg())
		if err != nil {
			b.Fatal(err)
		}
		tn, _ := simulate.GuestTimeContext(context.Background(), 1, n, 1, 8, benchProg())
		slow = float64(res.Time) / float64(tn)
	}
	b.ReportMetric(slow, "slowdown")
	b.ReportMetric(slow/analytic.NaiveSlowdown(1, n, 1), "meas/bound")
}

// BenchmarkNaiveSlowdownD2 reproduces E-P1 (d = 2): (n/p)^1.5.
func BenchmarkNaiveSlowdownD2(b *testing.B) {
	n, side := 256, 16
	var slow float64
	for i := 0; i < b.N; i++ {
		prog := AsNetwork{G: MixCA{Seed: 9}, Side: side}
		res, err := simulate.NaiveContext(context.Background(), 2, n, 1, 1, 4, prog)
		if err != nil {
			b.Fatal(err)
		}
		tn, _ := simulate.GuestTimeContext(context.Background(), 2, n, 1, 4, prog)
		slow = float64(res.Time) / float64(tn)
	}
	b.ReportMetric(slow, "slowdown")
	b.ReportMetric(slow/analytic.NaiveSlowdown(2, n, 1), "meas/bound")
}

// BenchmarkTheorem2 reproduces E-T2: the d = 1, m = 1 uniprocessor
// divide-and-conquer, slowdown O(n log n).
func BenchmarkTheorem2(b *testing.B) {
	n := 128
	prog := Rule90{Seed: 1}
	var norm float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.UniDCContext(context.Background(), 1, n, n, 8, prog)
		if err != nil {
			b.Fatal(err)
		}
		nn := float64(n)
		norm = float64(res.Time) / (nn * nn * analytic.Log(nn))
	}
	b.ReportMetric(norm, "T/(n²·Logn)")
}

// BenchmarkTheorem3 reproduces E-T3: the blocked uniprocessor scheme for
// general m.
func BenchmarkTheorem3(b *testing.B) {
	n, m, steps := 128, 16, 32
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.BlockedContext(context.Background(), 1, n, m, steps, 0, benchProg())
		if err != nil {
			b.Fatal(err)
		}
		tn, _ := GuestTimeContext(context.Background(), 1, n, m, steps, benchProg())
		ratio = float64(res.Time) / float64(tn) / analytic.Theorem3Slowdown(n, m)
	}
	b.ReportMetric(ratio, "meas/bound")
}

// BenchmarkTheorem3D2 reproduces E-T3b: the d = 2 blocked scheme.
func BenchmarkTheorem3D2(b *testing.B) {
	side, m, steps := 8, 4, 8
	prog := AsNetwork{G: MixCA{Seed: 9}, Side: side}
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.BlockedContext(context.Background(), 2, side*side, m, steps, 0, prog)
		if err != nil {
			b.Fatal(err)
		}
		tn, _ := GuestTimeContext(context.Background(), 2, side*side, m, steps, prog)
		ratio = float64(res.Time) / float64(tn)
	}
	b.ReportMetric(ratio, "slowdown")
}

// BenchmarkTheorem1D1 reproduces E-T4: the multiprocessor scheme's
// locality slowdown in range 2 (the regime where all mechanisms are
// active).
func BenchmarkTheorem1D1(b *testing.B) {
	n, p, m, steps := 256, 8, 16, 64
	var ameas float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.MultiContext(context.Background(), 1, n, p, m, steps, benchProg(), MultiOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tn, _ := GuestTimeContext(context.Background(), 1, n, m, steps, benchProg())
		ameas = float64(res.Time) / float64(tn) / (float64(n) / float64(p))
	}
	b.ReportMetric(ameas, "A_meas")
	b.ReportMetric(ameas/analytic.A(1, n, m, p), "A_meas/A_bound")
}

// BenchmarkTheorem5 reproduces E-T5: d = 2, m = 1 uniprocessor
// divide-and-conquer via octahedral separators.
func BenchmarkTheorem5(b *testing.B) {
	side := 16
	prog := Rule90{Seed: 2}
	var norm float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.UniDCContext(context.Background(), 2, side*side, side, 8, prog)
		if err != nil {
			b.Fatal(err)
		}
		k := float64(side * side * side)
		norm = float64(res.Time) / (k * analytic.Log(k))
	}
	b.ReportMetric(norm, "T/(k·Logk)")
}

// BenchmarkTheorem1D2 reproduces E-T1b: the d = 2 multiprocessor model.
func BenchmarkTheorem1D2(b *testing.B) {
	n, p, m, steps, side := 1024, 16, 8, 16, 32
	prog := AsNetwork{G: MixCA{Seed: 9}, Side: side}
	var ameas float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.MultiContext(context.Background(), 2, n, p, m, steps, prog, MultiOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tn, _ := GuestTimeContext(context.Background(), 2, n, m, steps, prog)
		ameas = float64(res.Time) / float64(tn) / (float64(n) / float64(p))
	}
	b.ReportMetric(ameas, "A_meas")
	b.ReportMetric(ameas/analytic.A(2, n, m, p), "A_meas/A_bound")
}

// BenchmarkMatmulSpeedup reproduces E-MM: the Section 1 superlinear-
// speedup example.
func BenchmarkMatmulSpeedup(b *testing.B) {
	sq := 64
	var speed float64
	for i := 0; i < b.N; i++ {
		a, bb := MatmulInput(sq, 5)
		_, tm := MeshMatmul(sq, a, bb)
		_, tn := NaiveMatmul(sq, a, bb)
		speed = float64(tn) / float64(tm)
	}
	n := float64(sq * sq)
	b.ReportMetric(speed, "speedup")
	b.ReportMetric(speed/n, "speedup/n")
}

// BenchmarkOptimalS reproduces E-S*: the strip-width sweep of Theorem 4.
func BenchmarkOptimalS(b *testing.B) {
	n, p, m, steps := 256, 8, 16, 32
	var bestS float64
	for i := 0; i < b.N; i++ {
		best := -1.0
		var bestT Time
		for sw := 1; sw <= n/p; sw *= 2 {
			res, err := simulate.MultiContext(context.Background(), 1, n, p, m, steps, benchProg(), MultiOptions{StripWidth: sw})
			if err != nil {
				b.Fatal(err)
			}
			if best < 0 || res.Time < bestT {
				best, bestT = float64(sw), res.Time
			}
		}
		bestS = best
	}
	b.ReportMetric(bestS, "s_best")
	b.ReportMetric(OptimalS(n, m, p), "s_star")
}

// BenchmarkAblations reproduces E-AB: cost of disabling each mechanism.
func BenchmarkAblations(b *testing.B) {
	n, p, m, steps := 256, 8, 16, 64
	var noRe, noCoop float64
	for i := 0; i < b.N; i++ {
		full, err := simulate.MultiContext(context.Background(), 1, n, p, m, steps, benchProg(), MultiOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r1, err := simulate.MultiContext(context.Background(), 1, n, p, m, steps, benchProg(), MultiOptions{NoRearrange: true})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := simulate.MultiContext(context.Background(), 1, n, p, m, steps, benchProg(), MultiOptions{NoCooperate: true})
		if err != nil {
			b.Fatal(err)
		}
		noRe = float64(r1.Time) / float64(full.Time)
		noCoop = float64(r2.Time) / float64(full.Time)
	}
	b.ReportMetric(noRe, "noRearrange_x")
	b.ReportMetric(noCoop, "noCooperate_x")
}

// BenchmarkPipelinedBlocks reproduces E-PIPE (and the DESIGN § 6.5
// ablation): the gap between per-word and pipelined block transfers.
func BenchmarkPipelinedBlocks(b *testing.B) {
	n, m, steps := 128, 16, 32
	var speedup float64
	for i := 0; i < b.N; i++ {
		std, err := simulate.BlockedContext(context.Background(), 1, n, m, steps, 0, benchProg())
		if err != nil {
			b.Fatal(err)
		}
		pipe, err := simulate.BlockedContext(context.Background(), 1, n, m, steps, 0, benchProg(), hram.WithPipelinedBlocks())
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(std.Time) / float64(pipe.Time)
	}
	b.ReportMetric(speedup, "pipe_speedup")
}

// BenchmarkRestrictedMemory reproduces E-M': guests with m' < m live
// words simulate faster.
func BenchmarkRestrictedMemory(b *testing.B) {
	n, m, steps := 128, 64, 32
	var gain float64
	for i := 0; i < b.N; i++ {
		full, err := simulate.BlockedContext(context.Background(), 1, n, m, steps, 0, RestrictMem{P: MixCA{Seed: 13}, Words: m})
		if err != nil {
			b.Fatal(err)
		}
		small, err := simulate.BlockedContext(context.Background(), 1, n, m, steps, 0, RestrictMem{P: MixCA{Seed: 13}, Words: 4})
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(full.Time) / float64(small.Time)
	}
	b.ReportMetric(gain, "m'_gain")
}

// BenchmarkCooperatingMode reproduces E-COOP: the measured advantage of
// cooperative execution over solo remote fetch at m = 16.
func BenchmarkCooperatingMode(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.CoopBlockContext(context.Background(), 1024, 8, 16, 16, 16, benchProg())
		if err != nil {
			b.Fatal(err)
		}
		adv = float64(res.SoloTime) / float64(res.CoopTime)
	}
	b.ReportMetric(adv, "solo/coop")
}

// BenchmarkFigure1 through BenchmarkFigure4 regenerate and validate the
// figure constructions.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.F1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.F2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.F3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.F4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConjectureD3 reproduces E-D3: the paper's open question made
// executable — the d = 3 divide-and-conquer (UniDCContext) over the
// four-dimensional separator domains.
func BenchmarkConjectureD3(b *testing.B) {
	side := 8
	prog := guest.Rule90{Seed: 3}
	var norm float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.UniDCContext(context.Background(), 3, side*side*side, side, 8, prog)
		if err != nil {
			b.Fatal(err)
		}
		k := float64(side * side * side * side)
		norm = float64(res.Time) / (k * analytic.Log(k))
	}
	b.ReportMetric(norm, "T/(k·Logk)")
}

// BenchmarkConjectureD3Multi reproduces E-D3b: the conjectured d = 3
// multiprocessor locality slowdown.
func BenchmarkConjectureD3Multi(b *testing.B) {
	side, p, m, steps := 8, 8, 2, 8
	n := side * side * side
	prog := AsNetwork{G: MixCA{Seed: 9}, CubeSide: side}
	var ameas float64
	for i := 0; i < b.N; i++ {
		res, err := simulate.MultiContext(context.Background(), 3, n, p, m, steps, prog, MultiOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tn, _ := GuestTimeContext(context.Background(), 3, n, m, steps, prog)
		ameas = float64(res.Time) / float64(tn) / (float64(n) / float64(p))
	}
	b.ReportMetric(ameas, "A_meas")
	b.ReportMetric(ameas/analytic.A(3, n, m, p), "A_meas/A_conj")
}

// BenchmarkUniDCExecutor measures the Proposition 2 recursion's vertex
// flow at d = 1 (vertices per second of real Go time): the host cost of
// the copy-downs, stagings and vertex-by-vertex leaves behind E-T2.
func BenchmarkUniDCExecutor(b *testing.B) {
	n := 64
	prog := guest.Rule90{Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := simulate.UniDCContext(context.Background(), 1, n, n, 8, prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*n), "vertices/op")
}
