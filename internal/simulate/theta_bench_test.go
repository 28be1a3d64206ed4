package simulate

import (
	"context"
	"testing"
)

// BenchmarkMultiD1ThetaStretch pairs with BenchmarkMultiD1: the
// identical tuple at Θ = 2, where every distance-proportional charge
// additionally draws a seeded delay factor and the desynchronized joins
// do real Idle work.
func BenchmarkMultiD1ThetaStretch(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := MultiContext(context.Background(), 1, 256, 8, 16, 64, prog, MultiOptions{Theta: 2, ThetaSeed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}
