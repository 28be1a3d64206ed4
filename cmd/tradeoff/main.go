// Command tradeoff prints processor-time tradeoff tables for the
// bounded-speed model: Theorem 1's analytic slowdown (n/p)·A(n, m, p) and,
// optionally, the measured slowdown from the executable simulations.
//
// Usage:
//
//	tradeoff -d 1 -n 1024 -p 16 -m 1,8,64,512,2048 [-measure] [-steps 64]
//
// Columns: the Brent baseline n/p, the naive bound, Theorem 1's range and
// bound, and (with -measure) the measured slowdown of the corresponding
// simulation scheme.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"bsmp"
	"bsmp/internal/profiling"
	"bsmp/internal/topology"
)

func main() {
	d := flag.Int("d", 1, "mesh dimension (1, 2 or 3)")
	n := flag.Int("n", 1024, "machine volume n (d=2: a perfect square; d=3: a perfect cube)")
	p := flag.Int("p", 16, "host processors (divides n; same shape constraint as n)")
	ms := flag.String("m", "1,4,16,64,256,1024", "comma-separated memory densities")
	measure := flag.Bool("measure", false, "also run the executable simulation")
	scheme := flag.String("scheme", "multi", "simulation scheme to measure (see bsmp.Schemes)")
	steps := flag.Int("steps", 64, "guest steps to simulate when measuring")
	theta := flag.Float64("theta", 0, "Θ-model delay ratio for -scheme multi-theta: delays in [dist, Θ·dist] (0 or 1 = lockstep)")
	thetaSeed := flag.Uint64("theta-seed", 0, "seed for the Θ-model delay draws")
	faults := flag.Float64("faults", 0, "dead-component density in [0, 1) for -scheme multi-faulty (0 = fault-free)")
	faultSeed := flag.Uint64("fault-seed", 0, "seed for the fault mask draws")
	sweep := flag.Bool("sweep", false, "dyadic m sweep with an ASCII curve of A(n,m,p)")
	csv := flag.Bool("csv", false, "emit CSV instead of the aligned table")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for -measure runs; on expiry report the rows that finished (0 = no limit)")
	memoCap := flag.Int("memo-cap", 0, "unified memo store entry bound (kernels + subtree records); 0 = default, negative disables memoization")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write the -measure runs' span timeline to this file (Chrome trace_event JSON)")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	if *memoCap != 0 {
		bsmp.SetMemoCapacity(*memoCap)
	}

	if *sweep {
		runSweep(*d, *n, *p, *csv)
		return
	}

	var mvals []int
	for _, s := range strings.Split(*ms, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad m value %q: %v", s, err)
		}
		mvals = append(mvals, v)
	}

	cfg := bsmp.SchemeConfig{Multi: bsmp.MultiOptions{
		Theta: *theta, ThetaSeed: *thetaSeed,
		Faults: *faults, FaultSeed: *faultSeed,
	}}
	if *measure {
		// Reject a bad scheme name (or a config knob the scheme refuses)
		// before any analytic rows print, and answer a typo with the same
		// registry table `experiments -schemes` shows.
		if _, err := bsmp.SchemeByName(*scheme, *d); err != nil {
			log.Fatalf("%v\nregistered schemes:\n%s", err, bsmp.SchemeTable())
		}
		if err := bsmp.ValidateParams(*scheme, *d, *n, *p, mvals[0], *steps, cfg); err != nil {
			var pe *bsmp.ParamError
			if errors.As(err, &pe) && (pe.Field == "theta" || pe.Field == "faults") {
				log.Fatal(err)
			}
			// Other tuple constraints surface per row from the scheme run.
		}
	}

	b12, b23, b34 := bsmp.Boundaries(*d, *n, *p)
	fmt.Printf("M%d(%d, p, m): simulating %d guest processors on p = %d hosts\n",
		*d, *n, *n, *p)
	fmt.Printf("Brent slowdown (instantaneous model): %.0f\n", bsmp.BrentSlowdown(*n, *p))
	fmt.Printf("naive slowdown bound:                 %.0f\n", bsmp.NaiveSlowdownBound(*d, *n, *p))
	fmt.Printf("Theorem 1 range boundaries:           m = %.1f, %.1f, %.0f\n\n", b12, b23, b34)

	hdr := fmt.Sprintf("%8s %8s %8s %14s %14s", "m", "range", "s*", "A(n,m,p)", "(n/p)·A")
	if *measure {
		hdr += fmt.Sprintf(" %14s %10s", "measured", "meas/bound")
	}
	fmt.Println(hdr)

	// SIGINT/SIGTERM (and -timeout) cancel the measurement loop: the
	// in-flight simulation stops at its next checkpoint and the rows
	// already printed stand as the partial report.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -trace records every measured run's span timeline into one file;
	// the rows run sequentially under the same context, so the spans of
	// successive rows stack cleanly in one tracer.
	if *tracePath != "" {
		if !*measure {
			log.Fatal("-trace requires -measure (analytic rows execute nothing)")
		}
		tracer := bsmp.NewTracer()
		ctx = bsmp.WithTracer(ctx, tracer)
		defer func() {
			if err := profiling.WriteFile(*tracePath, tracer.WriteChromeTrace); err != nil {
				log.Fatal(err)
			}
		}()
	}

	for i, m := range mvals {
		a := bsmp.A(*d, *n, m, *p)
		bound := bsmp.Slowdown(*d, *n, m, *p)
		row := fmt.Sprintf("%8d %8s %8.0f %14.1f %14.1f",
			m, rangeName(*d, *n, m, *p), bsmp.OptimalS(*n, m, *p), a, bound)
		if *measure {
			slow, err := measured(ctx, *scheme, *d, *n, *p, m, *steps, cfg)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				log.Fatalf("interrupted (%v): %d of %d measured rows finished", err, i, len(mvals))
			}
			if err != nil {
				log.Fatalf("m=%d: %v", m, err)
			}
			row += fmt.Sprintf(" %14.1f %10.2f", slow, slow/bound)
		}
		fmt.Println(row)
	}
}

// runSweep prints a dyadic sweep of the locality slowdown A(n, m, p) with
// an ASCII curve and the range boundaries marked.
func runSweep(d, n, p int, csv bool) {
	b12, b23, b34 := bsmp.Boundaries(d, n, p)
	if csv {
		fmt.Println("m,range,A,slowdown,s_star")
	} else {
		fmt.Printf("Locality slowdown A(n=%d, m, p=%d), d=%d\n", n, p, d)
		fmt.Printf("boundaries: %.1f | %.1f | %.0f\n\n", b12, b23, b34)
	}
	var maxA float64
	var rows []struct {
		m int
		a float64
	}
	for m := 1; m <= 4*n; m *= 2 {
		a := bsmp.A(d, n, m, p)
		rows = append(rows, struct {
			m int
			a float64
		}{m, a})
		if a > maxA {
			maxA = a
		}
	}
	for _, r := range rows {
		if csv {
			fmt.Printf("%d,%s,%.3f,%.3f,%.1f\n",
				r.m, rangeName(d, n, r.m, p), r.a,
				bsmp.Slowdown(d, n, r.m, p), bsmp.OptimalS(n, r.m, p))
			continue
		}
		bar := strings.Repeat("#", int(50*math.Log(1+r.a)/math.Log(1+maxA)))
		mark := " "
		mf := float64(r.m)
		switch {
		case mf/2 < b12 && b12 <= mf:
			mark = "|" // crossing the range 1->2 boundary
		case mf/2 < b23 && b23 <= mf:
			mark = "|"
		case mf/2 < b34 && b34 <= mf:
			mark = "|"
		}
		fmt.Printf("m=%7d r%s %s %8.1f %s\n",
			r.m, rangeName(d, n, r.m, p), mark, r.a, bar)
	}
	if !csv {
		fmt.Println("\n('|' marks a range boundary crossed since the previous row)")
	}
}

func rangeName(d, n, m, p int) string {
	b12, b23, b34 := bsmp.Boundaries(d, n, p)
	mf := float64(m)
	switch {
	case mf <= b12:
		return "1"
	case mf <= b23:
		return "2"
	case mf <= b34:
		return "3"
	default:
		return "4"
	}
}

// measured runs the named registry scheme and reports its slowdown
// Tp/Tn. The d = 1 run is additionally verified against the pure
// reference execution (the cheap case; every scheme is verified across
// dimensions by the test suite and experiment E-REG). Model-grade
// schemes that produce no guest outputs (blocked-analytic) skip the
// output check — their fidelity gate is the E-BRENT battery — and
// calibrate the guest-time denominator on a smaller machine: the guest
// runs lock-step, so its per-step virtual time does not depend on n.
func measured(ctx context.Context, scheme string, d, n, p, m, steps int, cfg bsmp.SchemeConfig) (float64, error) {
	prog := guestProg(d, n)
	r, err := bsmp.RunSchemeContext(ctx, scheme, d, n, p, m, steps, prog, cfg)
	if err != nil {
		return 0, err
	}
	nGuest := n
	if r.Outputs == nil {
		if nGuest > 4096 {
			nGuest = 4096
		}
	} else if d == 1 {
		if err := r.Verify(1, n, m, prog); err != nil {
			return 0, err
		}
	}
	tn, err := bsmp.GuestTimeContext(ctx, d, nGuest, m, steps, guestProg(d, nGuest))
	if err != nil {
		return 0, err
	}
	return float64(r.Time) / float64(tn), nil
}

// guestProg builds the standard MixCA measurement guest with the grid
// geometry d requires.
func guestProg(d, n int) bsmp.Program {
	switch d {
	case 2:
		side, _ := topology.IntRoot(2, n)
		return bsmp.AsNetwork{G: bsmp.MixCA{Seed: 9}, Side: side}
	case 3:
		side, _ := topology.IntRoot(3, n)
		return bsmp.AsNetwork{G: bsmp.MixCA{Seed: 9}, CubeSide: side}
	}
	return bsmp.AsNetwork{G: bsmp.MixCA{Seed: 9}}
}
