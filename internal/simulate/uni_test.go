package simulate

import (
	"context"
	"math"
	"testing"

	"bsmp/internal/guest"
)

func TestUniDCFunctionalD1(t *testing.T) {
	prog := guest.MixCA{Seed: 4}
	for _, n := range []int{8, 16, 32, 48} {
		res, err := UniDCContext(context.Background(), 1, n, n, 8, prog)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := VerifyDag(res, 1, n, prog); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestUniDCFunctionalD2(t *testing.T) {
	prog := guest.MixCA{Seed: 5}
	for _, side := range []int{3, 4, 6, 8} {
		n := side * side
		res, err := UniDCContext(context.Background(), 2, n, side, 8, prog)
		if err != nil {
			t.Fatalf("side=%d: %v", side, err)
		}
		if err := VerifyDag(res, 2, n, prog); err != nil {
			t.Fatalf("side=%d: %v", side, err)
		}
	}
}

func TestUniNaiveDagFunctional(t *testing.T) {
	prog := guest.MixCA{Seed: 6}
	res, err := UniNaiveDagContext(context.Background(), 1, 16, 16, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDag(res, 1, 16, prog); err != nil {
		t.Fatal(err)
	}
	res2, err := UniNaiveDagContext(context.Background(), 2, 16, 4, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDag(res2, 2, 16, prog); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem2ShapeBeatsNaiveAsymptotically(t *testing.T) {
	// The load-bearing claim of Theorem 2: UniDC time grows like
	// n²·log n (exponent ~2.1) while the naive baseline grows like n³
	// (exponent ~3 for d = 1 time over the T = n computation... the
	// naive dag run costs Θ(n) per vertex, n² vertices: Θ(n³)).
	prog := guest.Rule90{Seed: 1}
	var logN, logDC, logNv []float64
	for _, n := range []int{16, 32, 64, 128} {
		dc, err := UniDCContext(context.Background(), 1, n, n, 8, prog)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := UniNaiveDagContext(context.Background(), 1, n, n, prog)
		if err != nil {
			t.Fatal(err)
		}
		logN = append(logN, math.Log2(float64(n)))
		logDC = append(logDC, math.Log2(float64(dc.Time)))
		logNv = append(logNv, math.Log2(float64(nv.Time)))
	}
	dcSlope := fitSlope(logN, logDC)
	nvSlope := fitSlope(logN, logNv)
	if nvSlope < 2.7 || nvSlope > 3.3 {
		t.Errorf("naive exponent %v, want ~3", nvSlope)
	}
	if dcSlope > nvSlope-0.5 {
		t.Errorf("separator exponent %v not clearly below naive %v", dcSlope, nvSlope)
	}
}

func TestTheorem5ShapeD2(t *testing.T) {
	// d = 2: UniDC grows ~ k log k in dag size k = n^1.5 => in terms of
	// n: exponent ~1.5 (+log); naive dag run: n^1.5 vertices × √n access
	// = n² => exponent 2.
	prog := guest.Rule90{Seed: 2}
	var logN, logDC, logNv, boundRatios []float64
	for _, side := range []int{8, 16, 32} {
		n := side * side
		dc, err := UniDCContext(context.Background(), 2, n, side, 8, prog)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := UniNaiveDagContext(context.Background(), 2, n, side, prog)
		if err != nil {
			t.Fatal(err)
		}
		k := float64(side * side * side)
		boundRatios = append(boundRatios, float64(dc.Time)/(k*math.Log2(k)))
		logN = append(logN, math.Log2(float64(n)))
		logDC = append(logDC, math.Log2(float64(dc.Time)))
		logNv = append(logNv, math.Log2(float64(nv.Time)))
	}
	dcSlope := fitSlope(logN, logDC)
	nvSlope := fitSlope(logN, logNv)
	if nvSlope < 1.7 || nvSlope > 2.3 {
		t.Errorf("naive d=2 exponent %v, want ~2", nvSlope)
	}
	if dcSlope >= nvSlope {
		t.Errorf("separator d=2 exponent %v not below naive %v", dcSlope, nvSlope)
	}
	// Consistency with Θ(k·log k): the ratio τ/(k·Log k) converges — its
	// successive increments shrink (pure power-law excess would grow them).
	inc1 := boundRatios[1] - boundRatios[0]
	inc2 := boundRatios[2] - boundRatios[1]
	if inc2 >= inc1 {
		t.Errorf("τ/(k·log k) increments not shrinking: %v", boundRatios)
	}
}

func TestGuestTimePositiveAndLinear(t *testing.T) {
	prog := netProg(0)
	t8, _ := GuestTimeContext(context.Background(), 1, 32, 2, 8, prog)
	t16, _ := GuestTimeContext(context.Background(), 1, 32, 2, 16, prog)
	if t8 <= 0 || t16 <= 0 {
		t.Fatal("non-positive guest time")
	}
	if r := float64(t16) / float64(t8); r < 1.8 || r > 2.2 {
		t.Errorf("guest time not linear in steps: ratio %v", r)
	}
}

func TestUniDCBadDimension(t *testing.T) {
	if _, err := UniDCContext(context.Background(), 4, 8, 8, 8, guest.Rule90{}); err == nil {
		t.Fatal("d=4 did not error")
	}
}
