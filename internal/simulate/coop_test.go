package simulate

import (
	"context"
	"testing"
	"testing/quick"

	"bsmp/internal/guest"
	"bsmp/internal/network"
)

func TestCoopBlockValidation(t *testing.T) {
	prog := netProg(0)
	if _, err := CoopBlockContext(context.Background(), 64, 8, 1, 3, 4, prog); err == nil {
		t.Fatal("odd s did not error")
	}
	if _, err := CoopBlockContext(context.Background(), 64, 1, 1, 4, 4, prog); err == nil {
		t.Fatal("p=1 did not error")
	}
}

func TestCoopBlockRunsAgree(t *testing.T) {
	// CoopBlock verifies the two runs against each other internally; an
	// error would mean divergence.
	for _, tc := range []struct{ m, s, steps int }{
		{1, 8, 8}, {4, 8, 16}, {16, 4, 8},
	} {
		if _, err := CoopBlockContext(context.Background(), 256, 8, tc.m, tc.s, tc.steps, netProg(0)); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestCoopBlockAgainstPureSlice(t *testing.T) {
	// The isolated s-column slice is exactly a width-s guest: compare
	// against RunGuestPure on that smaller machine.
	m, s, steps := 3, 8, 10
	prog := netProg(0)
	res, err := CoopBlockContext(context.Background(), 256, 8, m, s, steps, prog)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := network.RunGuestPure(1, s, m, steps, prog)
	for x := range want {
		if res.Outputs[x] != want[x] {
			t.Fatalf("column %d: coop %d, pure %d", x, res.Outputs[x], want[x])
		}
	}
}

func TestCoopCrossoverInM(t *testing.T) {
	// The paper's observation made measurable: solo execution pulls
	// Θ(s·m) remote words while cooperation exchanges Θ(steps) values,
	// so cooperation's advantage grows with m.
	n, p, s, steps := 1024, 8, 16, 16
	prog := netProg(0)
	var prevAdv float64
	for i, m := range []int{1, 8, 64} {
		res, err := CoopBlockContext(context.Background(), n, p, m, s, steps, prog)
		if err != nil {
			t.Fatal(err)
		}
		adv := float64(res.SoloTime) / float64(res.CoopTime)
		if i > 0 && adv <= prevAdv {
			t.Errorf("m=%d: cooperation advantage %v not growing (prev %v)", m, adv, prevAdv)
		}
		prevAdv = adv
	}
	// At large m cooperation must win outright.
	res, err := CoopBlockContext(context.Background(), n, p, 64, s, steps, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoopTime >= res.SoloTime {
		t.Errorf("m=64: coop %v not faster than solo %v", res.CoopTime, res.SoloTime)
	}
}

// Property: cooperative and solo runs agree for random geometry.
func TestPropertyCoopSoloAgree(t *testing.T) {
	f := func(mRaw, sRaw, tRaw, seed uint8) bool {
		m := int(mRaw%6) + 1
		s := (int(sRaw%6) + 1) * 2
		steps := int(tRaw%10) + 1
		prog := guest.AsNetwork{G: guest.MixCA{Seed: uint64(seed)}}
		_, err := CoopBlockContext(context.Background(), 64, 4, m, s, steps, prog)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCoopCrossoverBothDirections(t *testing.T) {
	// "One alternative may be preferable over the other" (§4.2) — in both
	// directions. Cooperation exchanges one boundary value per step over
	// the full inter-processor distance; solo execution pulls the s·m-word
	// remote preboundary once. With many steps and m = 1 the per-step
	// exchanges dominate and solo must win; at large m the preboundary
	// dominates and cooperation must win. Same geometry, only m moves.
	n, p, s, steps := 1024, 8, 4, 64
	prog := netProg(0)
	lo, err := CoopBlockContext(context.Background(), n, p, 1, s, steps, prog)
	if err != nil {
		t.Fatal(err)
	}
	if lo.SoloTime >= lo.CoopTime {
		t.Errorf("m=1: solo %v not cheaper than coop %v", lo.SoloTime, lo.CoopTime)
	}
	hi, err := CoopBlockContext(context.Background(), n, p, 64, s, steps, prog)
	if err != nil {
		t.Fatal(err)
	}
	if hi.CoopTime >= hi.SoloTime {
		t.Errorf("m=64: coop %v not cheaper than solo %v", hi.CoopTime, hi.SoloTime)
	}
}
