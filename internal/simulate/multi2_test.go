package simulate

import (
	"bsmp/internal/analytic"
	"context"
	"testing"
)

func TestMultiD2Functional(t *testing.T) {
	for _, tc := range []struct{ n, p, m, steps int }{
		{64, 4, 1, 8}, {64, 4, 4, 8}, {256, 16, 2, 8},
	} {
		side := analytic.IntSqrtExact(tc.n)
		prog := netProg(side)
		res, err := MultiContext(context.Background(), 2, tc.n, tc.p, tc.m, tc.steps, prog, MultiOptions{})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := res.Verify(2, tc.n, tc.m, prog); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if res.Time <= 0 || res.Span < 2 {
			t.Fatalf("%+v: time %v span %d", tc, res.Time, res.Span)
		}
	}
}

func TestMultiD2MoreProcessorsFaster(t *testing.T) {
	prog := netProg(16)
	n, m, steps := 256, 2, 16
	t4, err := MultiContext(context.Background(), 2, n, 4, m, steps, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t16, err := MultiContext(context.Background(), 2, n, 16, m, steps, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if t16.Time >= t4.Time {
		t.Errorf("p=16 (%v) not faster than p=4 (%v)", t16.Time, t4.Time)
	}
}

func TestMultiD2ChosenSpanBeatsOverrides(t *testing.T) {
	// The internally optimized span should be at least as good as any
	// forced power-of-two span (it was chosen by minimizing).
	prog := netProg(32)
	n, p, m, steps := 1024, 16, 4, 16
	opt, err := MultiContext(context.Background(), 2, n, p, m, steps, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 8} {
		forced, err := MultiContext(context.Background(), 2, n, p, m, steps, prog, MultiOptions{SpanOverride: s})
		if err != nil {
			t.Fatal(err)
		}
		if opt.Time > forced.Time*1.001 {
			t.Errorf("optimized span %d time %v worse than forced span %d time %v",
				opt.Span, opt.Time, s, forced.Time)
		}
	}
}

func TestMultiD2RearrangementHelps(t *testing.T) {
	prog := netProg(32)
	n, p, m, steps := 1024, 16, 8, 16
	full, err := MultiContext(context.Background(), 2, n, p, m, steps, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noRe, err := MultiContext(context.Background(), 2, n, p, m, steps, prog, MultiOptions{NoRearrange: true})
	if err != nil {
		t.Fatal(err)
	}
	if noRe.Time <= full.Time {
		t.Errorf("no-rearrange %v not worse than full %v", noRe.Time, full.Time)
	}
}

func TestMultiD2MeasuredATracksTheoremShapeD2(t *testing.T) {
	// The d = 2 analog of the headline: normalized A_meas(m) within a
	// constant band of Theorem 1's d = 2 A across ranges 2-4.
	n, p, steps := 1024, 16, 16
	prog := netProg(32)
	ms := []int{4, 8, 32, 64}
	ref := 8
	ameas := make(map[int]float64)
	for _, m := range ms {
		res, err := MultiContext(context.Background(), 2, n, p, m, steps, prog, MultiOptions{})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		tn, _ := GuestTimeContext(context.Background(), 2, n, m, steps, prog)
		ameas[m] = float64(res.Time) / float64(tn) / (float64(n) / float64(p))
	}
	for _, m := range ms {
		normMeas := ameas[m] / ameas[ref]
		normBound := analytic.A(2, n, m, p) / analytic.A(2, n, ref, p)
		r := normMeas / normBound
		if r < 1.0/8 || r > 8 {
			t.Errorf("m=%d: normalized A_meas %v vs bound %v (ratio %v) outside 8x band",
				m, normMeas, normBound, r)
		}
	}
}
