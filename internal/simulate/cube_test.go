package simulate

import (
	"context"
	"math"
	"testing"

	"bsmp/internal/guest"
)

// These tests exercise the d = 3 extension: the paper's concluding
// conjecture that Theorem 1 extends to three-dimensional machines via a
// four-dimensional topological separator, which lattice.Domain provides
// at Dim 3.

func TestUniDCFunctionalD3(t *testing.T) {
	prog := guest.MixCA{Seed: 7}
	for _, side := range []int{2, 3, 4} {
		n := side * side * side
		res, err := UniDCContext(context.Background(), 3, n, side, 8, prog)
		if err != nil {
			t.Fatalf("side=%d: %v", side, err)
		}
		if err := VerifyDag(res, 3, n, prog); err != nil {
			t.Fatalf("side=%d: %v", side, err)
		}
	}
}

func TestUniNaiveDagFunctionalD3(t *testing.T) {
	prog := guest.MixCA{Seed: 8}
	res, err := UniNaiveDagContext(context.Background(), 3, 27, 3, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDag(res, 3, 27, prog); err != nil {
		t.Fatal(err)
	}
}

func TestD3GuestTimeMatchesDagView(t *testing.T) {
	// Guest-time measurement works for d = 3, and the network view of
	// Rule90 matches the dag view on the cube (order-insensitive rule).
	side := 3
	n := side * side * side
	r := guest.Rule90{Seed: 5}
	tn, _ := GuestTimeContext(context.Background(), 3, n, 1, side, guest.AsNetwork{G: r, CubeSide: side})
	if tn <= 0 {
		t.Fatal("non-positive d=3 guest time")
	}
	res, err := UniDCContext(context.Background(), 3, n, side+1, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDag(res, 3, n, r); err != nil {
		t.Fatal(err)
	}
}

func TestD3SeparatorBeatsNaiveExponent(t *testing.T) {
	// The conjecture, measured: on the d = 3 dag (k = n^(4/3) vertices
	// for T = side), the divide-and-conquer time grows like k·log k
	// (exponent ~4/3 in n = side³ plus log drift) while the naive order
	// pays f(n·m) = n^(1/3) per access on top: k·n^(1/3) = n^(5/3).
	prog := guest.Rule90{Seed: 3}
	var logN, nv, nvOverDC, dcNorm []float64
	for _, side := range []int{4, 8, 14} {
		n := side * side * side
		r, err := UniDCContext(context.Background(), 3, n, side, 8, prog)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := UniNaiveDagContext(context.Background(), 3, n, side, prog)
		if err != nil {
			t.Fatal(err)
		}
		k := float64(n) * float64(side)
		logN = append(logN, math.Log2(float64(n)))
		nv = append(nv, math.Log2(float64(rn.Time)))
		nvOverDC = append(nvOverDC, float64(rn.Time)/float64(r.Time))
		dcNorm = append(dcNorm, float64(r.Time)/(k*math.Log2(k)))
	}
	nvSlope := fitSlope(logN, nv)
	if nvSlope < 1.5 || nvSlope > 2.0 {
		t.Errorf("naive d=3 exponent %v, want ~5/3", nvSlope)
	}
	// At these sizes both schemes carry transients; the verifiable
	// conjecture signals are (a) naive/dc improves toward the
	// divide-and-conquer run as n grows and (b) its time normalized by
	// the conjectured k·log k bound stays within a narrow band.
	if nvOverDC[len(nvOverDC)-1] <= nvOverDC[0] {
		t.Errorf("naive/dc ratio not improving: %v", nvOverDC)
	}
	if band := dcNorm[len(dcNorm)-1] / dcNorm[0]; band > 3 {
		t.Errorf("dc τ/(k·log k) band %vx — inconsistent with k·log k: %v", band, dcNorm)
	}
}

// Proposition 3's space σ(k) = O(k^γ) on the line, γ = 1/2: quadrupling
// n grows the n² dag 16x, and the allowance ~4x, not 16x.
func TestD1SpaceScalesAsSqrt(t *testing.T) {
	prog := guest.Rule90{Seed: 1}
	res16, err := UniDCContext(context.Background(), 1, 16, 16, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	res64, err := UniDCContext(context.Background(), 1, 64, 64, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(res64.Space) / float64(res16.Space); ratio > 6.5 {
		t.Errorf("space ratio %v for 16x dag growth; want ~4 (σ = O(√k))", ratio)
	}
	if res64.Space < 64 {
		t.Errorf("space %d smaller than one row", res64.Space)
	}
}

// On the mesh, γ = 2/3: quadrupling the side grows the dag 64x, and the
// allowance ~16x.
func TestD2SpaceScalesAsTwoThirds(t *testing.T) {
	prog := guest.Rule90{Seed: 2}
	res4, err := UniDCContext(context.Background(), 2, 16, 4, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	res16, err := UniDCContext(context.Background(), 2, 256, 16, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(64, 2.0/3)
	if ratio := float64(res16.Space) / float64(res4.Space); ratio > want*2 {
		t.Errorf("space ratio %v for 64x dag growth; want ~%v (k^(2/3))", ratio, want)
	}
}

func TestD3SpaceScalesAsThreeQuarters(t *testing.T) {
	// σ(k) = O(k^(3/4)) for the γ = 3/4 separator: machine space stays
	// near the guest's own n·m = side³ words.
	prog := guest.Rule90{Seed: 3}
	res4, err := UniDCContext(context.Background(), 3, 64, 4, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	res8, err := UniDCContext(context.Background(), 3, 512, 8, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Dag grows 16x (side⁴); k^(3/4) predicts space ratio ~8.
	ratio := float64(res8.Space) / float64(res4.Space)
	if ratio > 16 {
		t.Errorf("space ratio %v for 16x dag growth, want ~8 (k^(3/4))", ratio)
	}
}
