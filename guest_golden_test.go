package bsmp

import (
	"testing"

	"bsmp/internal/cost"
)

// TestGoldenGuestTime pins the accounted guest run that measures Tn —
// RunGuest's elapsed time and its merged ledger (every category's total
// and charge count) — at d = 1, 2 and 3. The values were recorded before
// the guest step loop was shared with the other executors and must stay
// bit-identical.
func TestGoldenGuestTime(t *testing.T) {
	cases := []struct {
		d, n, m, steps int
		elapsed        Time
		totals         [5]Time // indexed by cost.Categories()
		counts         [5]int64
	}{
		{1, 64, 1, 8, 32, [5]Time{512, 1024, 0, 512, 0}, [5]int64{512, 1024, 0, 512, 0}},
		{1, 64, 4, 8, 32, [5]Time{512, 1024, 0, 512, 0}, [5]int64{512, 1024, 0, 512, 0}},
		{2, 64, 4, 6, 24, [5]Time{384, 768, 0, 384, 0}, [5]int64{384, 768, 0, 384, 0}},
		{3, 64, 4, 4, 16, [5]Time{256, 512, 0, 256, 0}, [5]int64{256, 512, 0, 256, 0}},
	}
	for _, c := range cases {
		prog := AsNetwork{G: MixCA{Seed: 9}}
		switch c.d {
		case 2:
			prog.Side = 8
		case 3:
			prog.CubeSide = 4
		}
		ma := NewMachine(c.d, c.n, c.n, c.m)
		_, elapsed := RunGuest(ma, prog, c.steps)
		if elapsed != c.elapsed {
			t.Errorf("d=%d m=%d: elapsed = %v, golden %v", c.d, c.m, elapsed, c.elapsed)
		}
		led := ma.Bank.Ledgers()
		for i, cat := range cost.Categories() {
			if got := led.Total(cat); got != c.totals[i] {
				t.Errorf("d=%d m=%d: %s total = %v, golden %v", c.d, c.m, cat, got, c.totals[i])
			}
			if got := led.Count(cat); got != c.counts[i] {
				t.Errorf("d=%d m=%d: %s count = %d, golden %d", c.d, c.m, cat, got, c.counts[i])
			}
		}
	}
}
