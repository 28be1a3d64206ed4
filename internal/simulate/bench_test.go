package simulate

import (
	"context"
	"testing"

	"bsmp/internal/guest"
)

func BenchmarkBlockedD1Small(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := BlockedContext(context.Background(), 1, 64, 4, 32, 0, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveD1Small(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := NaiveContext(context.Background(), 1, 64, 4, 2, 16, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoopBlock(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := CoopBlockContext(context.Background(), 256, 8, 4, 8, 16, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiD1(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := MultiContext(context.Background(), 1, 256, 8, 16, 64, prog, MultiOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiD2(b *testing.B) {
	prog := netProg(16)
	for i := 0; i < b.N; i++ {
		if _, err := MultiContext(context.Background(), 2, 256, 4, 8, 8, prog, MultiOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiD3(b *testing.B) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8}
	for i := 0; i < b.N; i++ {
		if _, err := MultiContext(context.Background(), 3, 512, 8, 4, 8, prog, MultiOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The *Memo/*NoMemo pairs measure the subtree-memo fast path against
// the same engine with memoization disabled (WithoutMemo context). The
// sizes are repeated-subtree heavy — steps large relative to m — so the
// recursion revisits congruent diamonds and the memo-on side amortizes
// to replay cost after the first iteration populates the store.

func BenchmarkBlockedD1Memo(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := BlockedContext(context.Background(), 1, 256, 4, 128, 0, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockedD1NoMemo(b *testing.B) {
	prog := netProg(0)
	ctx := WithoutMemo(context.Background())
	for i := 0; i < b.N; i++ {
		if _, err := BlockedContext(ctx, 1, 256, 4, 128, 0, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiD1Memo(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := MultiContext(context.Background(), 1, 256, 8, 16, 64, prog, MultiOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiD1NoMemo(b *testing.B) {
	prog := netProg(0)
	ctx := WithoutMemo(context.Background())
	for i := 0; i < b.N; i++ {
		if _, err := MultiContext(ctx, 1, 256, 8, 16, 64, prog, MultiOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticD1 runs the analytic replay engine at the exact same
// size as the BlockedD1Memo/NoMemo pair: same recursion, same model
// charges (Time matches the exact engine to 1e-9 relative), but no
// guest outputs — subtree hits replay as O(1) ledger deltas instead of
// charge-trace playback.
func BenchmarkAnalyticD1(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := BlockedAnalyticD1Context(context.Background(), 256, 4, 128, 0, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticD1Huge runs a size far beyond what the exact engines
// can simulate (n=2^16, steps=2^8: ~16.8M lattice vertices) through the
// analytic replay path.
func BenchmarkAnalyticD1Huge(b *testing.B) {
	defer SetMemoCapacity(MemoCapacity())
	SetMemoCapacity(1 << 16)
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := BlockedAnalyticD1Context(context.Background(), 1<<16, 8, 1<<8, 0, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSchemeMultiD1(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := RunSchemeContext(context.Background(), "multi", 1, 256, 8, 16, 64, prog, SchemeConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
