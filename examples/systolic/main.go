// Systolic demonstrates Theorem 4: simulating the linear array
// M1(n, n, m) on the p-processor M1(n, p, m), sweeping the memory density
// m through the four ranges of the locality slowdown A(n, m, p), and
// showing the ablations (no rearrangement / no cooperating mode) that make
// the paper's "non-intuitive orchestration" visible.
package main

import (
	"context"
	"fmt"
	"log"

	"bsmp"
)

func main() {
	ctx := context.Background()
	n, p, steps := 256, 8, 64
	prog := bsmp.AsNetwork{G: bsmp.MixCA{Seed: 11}}

	b12, b23, b34 := bsmp.Boundaries(1, n, p)
	fmt.Printf("Theorem 4: M1(%d, %d, m) hosting M1(%d, %d, m), %d steps\n", n, p, n, n, steps)
	fmt.Printf("range boundaries: m = %.1f, %.1f, %.0f\n\n", b12, b23, b34)
	fmt.Printf("%6s %8s %6s %12s %12s %12s %12s\n",
		"m", "s*", "levels", "A_measured", "A_bound", "T_noRearr", "T_noCoop")

	for _, m := range []int{1, 4, 16, 64, 256, 1024} {
		full, err := bsmp.RunSchemeContext(ctx, "multi", 1, n, p, m, steps, prog, bsmp.SchemeConfig{})
		if err != nil {
			log.Fatal(err)
		}
		if err := full.Verify(1, n, m, prog); err != nil {
			log.Fatalf("m=%d: %v", m, err)
		}
		noRe, err := bsmp.RunSchemeContext(ctx, "multi", 1, n, p, m, steps, prog,
			bsmp.SchemeConfig{Multi: bsmp.MultiOptions{NoRearrange: true}})
		if err != nil {
			log.Fatal(err)
		}
		noCoop, err := bsmp.RunSchemeContext(ctx, "multi", 1, n, p, m, steps, prog,
			bsmp.SchemeConfig{Multi: bsmp.MultiOptions{NoCooperate: true}})
		if err != nil {
			log.Fatal(err)
		}
		tn, err := bsmp.GuestTimeContext(ctx, 1, n, m, steps, prog)
		if err != nil {
			log.Fatal(err)
		}
		aMeas := float64(full.Time) / float64(tn) / (float64(n) / float64(p))
		fmt.Printf("%6d %8d %6d %12.1f %12.1f %12.2fx %12.2fx\n",
			m, full.StripWidth, full.Regime1Levels,
			aMeas, bsmp.A(1, n, m, p),
			float64(noRe.Time)/float64(full.Time),
			float64(noCoop.Time)/float64(full.Time))
	}

	fmt.Println()
	fmt.Println("A_measured tracks A_bound's shape across the ranges (constants are")
	fmt.Println("machinery-dependent); the ablation columns show when each mechanism")
	fmt.Println("is load-bearing. All runs are functionally verified against the guest.")
}
