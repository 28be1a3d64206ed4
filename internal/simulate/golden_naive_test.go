package simulate

import (
	"context"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/guest"
	"bsmp/internal/network"
)

// TestGoldenNaive pins the naive engine bit-exactly: its Time and every
// category's ledger total and charge count, at d = 1 and 2, for p = 1
// and p > 1, m = 1 and m > 1. The values were recorded before the guest
// step loop was shared with the other executors; like every golden here
// they may only change with a deliberate, called-out model change.
func TestGoldenNaive(t *testing.T) {
	cases := []struct {
		d, n, p, m, steps int
		time              cost.Time
		totals            [5]cost.Time // indexed by cost.Categories()
		counts            [5]int64
	}{
		{1, 64, 1, 1, 8, 81432, [5]cost.Time{512, 80920, 0, 0, 0}, [5]int64{512, 2544, 0, 0, 0}},
		{1, 64, 1, 4, 8, 82185.6000000018, [5]cost.Time{512, 81673.60000000178, 0, 0, 0}, [5]int64{512, 2544, 0, 0, 0}},
		{1, 64, 4, 1, 8, 5560, [5]cost.Time{512, 19552, 0, 48, 2128}, [5]int64{512, 2496, 0, 48, 56}},
		{1, 64, 8, 4, 8, 1897.5999999999958, [5]cost.Time{512, 10060.799999999976, 0, 112, 4496}, [5]int64{512, 2432, 0, 112, 120}},
		{2, 64, 1, 1, 6, 13716.55152082315, [5]cost.Time{384, 13332.551520823152, 0, 0, 0}, [5]int64{384, 2496, 0, 0, 0}},
		{2, 64, 1, 4, 6, 13797.95268253901, [5]cost.Time{384, 13413.952682539013, 0, 0, 0}, [5]int64{384, 2496, 0, 0, 0}},
		{2, 64, 4, 1, 6, 2105.2397010051445, [5]cost.Time{384, 6140.958804020583, 0, 192, 1704.0000000000007}, [5]int64{384, 2304, 0, 192, 132}},
		{2, 64, 16, 4, 6, 526.3734875082818, [5]cost.Time{384, 2767.2369221731083, 0, 576, 4694.738877959406}, [5]int64{384, 1920, 0, 576, 300}},
	}
	for _, c := range cases {
		var prog network.Program = guest.AsNetwork{G: guest.MixCA{Seed: 9}}
		if c.d == 2 {
			prog = guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 8}
		}
		r, err := NaiveContext(context.Background(), c.d, c.n, c.p, c.m, c.steps, prog)
		if err != nil {
			t.Fatalf("d=%d p=%d m=%d: %v", c.d, c.p, c.m, err)
		}
		if r.Time != c.time {
			t.Errorf("d=%d p=%d m=%d: Time = %v, golden %v", c.d, c.p, c.m, r.Time, c.time)
		}
		for i, cat := range cost.Categories() {
			if got := r.Ledger.Total(cat); got != c.totals[i] {
				t.Errorf("d=%d p=%d m=%d: %s total = %v, golden %v", c.d, c.p, c.m, cat, got, c.totals[i])
			}
			if got := r.Ledger.Count(cat); got != c.counts[i] {
				t.Errorf("d=%d p=%d m=%d: %s count = %d, golden %d", c.d, c.p, c.m, cat, got, c.counts[i])
			}
		}
	}
}
