package exp

import (
	"context"
	"testing"
)

// BenchmarkExpAll compares the concurrent experiment battery against the
// single-worker path on the quick scale. On a multi-core host the
// parallel variant approaches the greedy bound max(T∞, T₁/GOMAXPROCS),
// T∞ being E-BRENT, the job dispatched first; on one core the two
// coincide (the pool degenerates to a single worker). Per-op allocations
// are the same work either way.
func BenchmarkExpAll(b *testing.B) {
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AllContext(context.Background(), Scale{Quick: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AllSequentialContext(context.Background(), Scale{Quick: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
