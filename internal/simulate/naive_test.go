package simulate

import (
	"bsmp/internal/analytic"
	"bsmp/internal/guest"
	"bsmp/internal/network"
	"context"
	"math"
	"testing"
)

func netProg(side int) network.Program {
	return guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: side}
}

func TestNaiveFunctionalD1(t *testing.T) {
	for _, tc := range []struct{ n, p, m, steps int }{
		{8, 1, 1, 8}, {8, 2, 1, 8}, {16, 4, 3, 10}, {16, 16, 2, 5}, {12, 3, 1, 7},
	} {
		prog := netProg(0)
		res, err := NaiveContext(context.Background(), 1, tc.n, tc.p, tc.m, tc.steps, prog)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := res.Verify(1, tc.n, tc.m, prog); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if res.Time <= 0 {
			t.Fatalf("%+v: non-positive time", tc)
		}
	}
}

func TestNaiveFunctionalD2(t *testing.T) {
	for _, tc := range []struct{ n, p, m, steps int }{
		{16, 1, 1, 4}, {16, 4, 2, 5}, {64, 4, 1, 6}, {64, 16, 3, 4},
	} {
		side := analytic.IntSqrtExact(tc.n)
		prog := netProg(side)
		res, err := NaiveContext(context.Background(), 2, tc.n, tc.p, tc.m, tc.steps, prog)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := res.Verify(2, tc.n, tc.m, prog); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
	}
}

func TestNaiveSlowdownShapeD1(t *testing.T) {
	// Slowdown of Naive on p = 1 should grow ~ n²: fitted exponent near 2.
	var logN, logS []float64
	for _, n := range []int{16, 32, 64, 128} {
		prog := netProg(0)
		res, err := NaiveContext(context.Background(), 1, n, 1, 1, 8, prog)
		if err != nil {
			t.Fatal(err)
		}
		guestT, _ := GuestTimeContext(context.Background(), 1, n, 1, 8, prog)
		slow := float64(res.Time) / float64(guestT)
		logN = append(logN, math.Log2(float64(n)))
		logS = append(logS, math.Log2(slow))
	}
	slope := fitSlope(logN, logS)
	if slope < 1.6 || slope > 2.4 {
		t.Errorf("naive d=1 slowdown exponent %v, want ~2", slope)
	}
}

func TestNaiveSlowdownShapeD2(t *testing.T) {
	// d = 2, p = 1: slowdown ~ n^1.5.
	var logN, logS []float64
	for _, n := range []int{16, 64, 256} {
		side := analytic.IntSqrtExact(n)
		prog := netProg(side)
		res, err := NaiveContext(context.Background(), 2, n, 1, 1, 4, prog)
		if err != nil {
			t.Fatal(err)
		}
		guestT, _ := GuestTimeContext(context.Background(), 2, n, 1, 4, prog)
		slow := float64(res.Time) / float64(guestT)
		logN = append(logN, math.Log2(float64(n)))
		logS = append(logS, math.Log2(slow))
	}
	slope := fitSlope(logN, logS)
	if slope < 1.2 || slope > 1.8 {
		t.Errorf("naive d=2 slowdown exponent %v, want ~1.5", slope)
	}
}

func TestNaiveMoreProcessorsFaster(t *testing.T) {
	prog := netProg(0)
	var prev float64 = math.Inf(1)
	for _, p := range []int{1, 2, 4, 8} {
		res, err := NaiveContext(context.Background(), 1, 64, p, 2, 8, prog)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Time) >= prev {
			t.Errorf("p=%d not faster than p/2: %v >= %v", p, res.Time, prev)
		}
		prev = float64(res.Time)
	}
}

func fitSlope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
