package bsmp_test

import (
	"context"
	"fmt"

	"bsmp"
)

// ExampleRunSchemeContext simulates a linear-array cellular automaton on
// one processor via the topological-separator technique (scheme "unidc",
// Theorem 2) and verifies it against the direct execution.
func ExampleRunSchemeContext() {
	prog := bsmp.Rule90{Seed: 7}
	res, err := bsmp.RunSchemeContext(context.Background(), "unidc", 1, 32, 1, 1, 32,
		bsmp.AsNetwork{G: prog}, bsmp.SchemeConfig{Leaf: 8})
	if err != nil {
		panic(err)
	}
	if err := bsmp.VerifyDag(res.Result, 1, 32, prog); err != nil {
		panic(err)
	}
	fmt.Println("verified:", len(res.Outputs), "outputs")
	// Output: verified: 32 outputs
}

// ExampleA evaluates Theorem 1's locality slowdown in each of its four
// ranges of the memory density m.
func ExampleA() {
	n, p := 1024, 16
	for _, m := range []int{1, 16, 256, 2048} {
		fmt.Printf("m=%-5d A=%.1f\n", m, bsmp.A(1, n, m, p))
	}
	// Output:
	// m=1     A=7.1
	// m=16    A=19.3
	// m=256   A=57.2
	// m=2048  A=64.0
}

// ExampleRunSchemeContext_multi runs the full Theorem 4 multiprocessor
// simulation — rearrangement, Regime 1 relocation, Regime 2 cooperating
// execution — and checks the guest state is reproduced exactly.
func ExampleRunSchemeContext_multi() {
	prog := bsmp.AsNetwork{G: bsmp.MixCA{Seed: 3}}
	res, err := bsmp.RunSchemeContext(context.Background(), "multi", 1, 64, 4, 2, 32, prog, bsmp.SchemeConfig{})
	if err != nil {
		panic(err)
	}
	if err := res.Verify(1, 64, 2, prog); err != nil {
		panic(err)
	}
	fmt.Println("strip width:", res.StripWidth)
	// Output: strip width: 8
}

// ExampleBoundaries prints Theorem 1's range boundaries: the memory
// densities at which the dominant simulation mechanism changes.
func ExampleBoundaries() {
	b12, b23, b34 := bsmp.Boundaries(1, 4096, 64)
	fmt.Printf("%.0f %.0f %.0f\n", b12, b23, b34)
	// Output: 8 512 4096
}

// ExampleMeshMatmul reproduces the paper's Section 1 exhibit: the mesh's
// speedup over the straightforward uniprocessor is superlinear in the
// number of processors.
func ExampleMeshMatmul() {
	sq := 32 // 32x32 matrices on a 32x32 mesh: n = 1024 processors
	a, b := bsmp.MatmulInput(sq, 1)
	_, tMesh := bsmp.MeshMatmul(sq, a, b)
	_, tNaive := bsmp.NaiveMatmul(sq, a, b)
	speedup := float64(tNaive) / float64(tMesh)
	fmt.Println("superlinear:", speedup > float64(sq*sq))
	// Output: superlinear: true
}
