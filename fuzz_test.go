package bsmp_test

import (
	"context"
	"errors"
	"testing"

	"bsmp"
	"bsmp/internal/topology"
)

// fuzzSchemes maps the fuzzed selector byte onto the registry names.
var fuzzSchemes = []string{"naive", "unidc", "blocked", "multi", "multi-faulty"}

// fuzzGuest builds the MixCA measurement guest with the grid geometry d
// requires (mirrors cmd/tradeoff's guestProg).
func fuzzGuest(d, n int) bsmp.Program {
	switch d {
	case 2:
		side, _ := topology.IntRoot(2, n)
		return bsmp.AsNetwork{G: bsmp.MixCA{Seed: 9}, Side: side}
	case 3:
		side, _ := topology.IntRoot(3, n)
		return bsmp.AsNetwork{G: bsmp.MixCA{Seed: 9}, CubeSide: side}
	}
	return bsmp.AsNetwork{G: bsmp.MixCA{Seed: 9}}
}

// FuzzRunScheme is the panic-free-boundary fuzz target: for arbitrary
// (scheme, d, n, p, m, steps) tuples, ValidateParams and RunSchemeContext must
// agree and neither may panic. The seed corpus covers every scheme, every
// dimension, and the historical panic reproducers (non-square n for the
// d = 2 schemes, non-cube n for d = 3, overflow-scale parameters); CI
// runs the seeds on every push and a short fuzz session on top.
func FuzzRunScheme(f *testing.F) {
	seeds := [][6]int{
		// Valid tuples, one per registered (scheme, d).
		{0, 1, 16, 4, 2, 4}, {0, 2, 16, 4, 2, 4},
		{1, 1, 16, 1, 1, 4}, {1, 2, 16, 1, 1, 4}, {1, 3, 27, 1, 1, 4},
		{2, 1, 16, 1, 4, 4}, {2, 2, 16, 1, 4, 4}, {2, 3, 27, 1, 2, 4},
		{3, 1, 32, 4, 4, 8}, {3, 2, 16, 4, 2, 4}, {3, 3, 27, 1, 2, 4},
		// The ISSUE's reproducer: blocked d=2 with non-square n panicked
		// in analytic.IntSqrtExact before the validation boundary.
		{2, 2, 10, 1, 4, 4},
		// Shape and divisibility violations.
		{3, 2, 10, 1, 1, 4}, {3, 3, 12, 1, 1, 4}, {0, 2, 36, 6, 1, 4},
		{3, 1, 10, 3, 1, 4}, {2, 1, 16, 2, 4, 4}, {1, 1, 16, 1, 2, 4},
		// Degenerate and overflow-scale values.
		{0, 0, 0, 0, 0, 0}, {3, 1, -4, -2, -1, -8},
		{2, 1, 1 << 40, 1, 1 << 40, 8}, {1, 1, 1 << 40, 1, 1, 1 << 40},
		{0, 7, 16, 4, 1, 4},
	}
	for _, s := range seeds {
		f.Add(uint8(s[0]), s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, si uint8, d, n, p, m, steps int) {
		name := fuzzSchemes[int(si)%len(fuzzSchemes)]
		verr := bsmp.ValidateParams(name, d, n, p, m, steps)
		if verr != nil {
			var pe *bsmp.ParamError
			if !errors.As(verr, &pe) && d >= 1 && d <= 3 {
				// Known (name, d) pairs must reject with the typed error;
				// unknown pairs return the registry lookup error.
				if _, serr := bsmp.SchemeByName(name, d); serr == nil {
					t.Fatalf("ValidateParams(%s, %d, %d, %d, %d, %d) = %T %v, want *ParamError",
						name, d, n, p, m, steps, verr, verr)
				}
			}
		}
		// Execute every rejected tuple (rejection is cheap and must not
		// panic) and every accepted tuple small enough to simulate within
		// fuzz budgets.
		small := n <= 64 && m <= 8 && steps <= 8
		if verr == nil && !small {
			return
		}
		res, err := bsmp.RunSchemeContext(context.Background(), name, d, n, p, m, steps, fuzzGuest(d, n), bsmp.SchemeConfig{})
		if verr != nil && err == nil {
			t.Fatalf("RunSchemeContext(%s, %d, %d, %d, %d, %d) succeeded on a tuple ValidateParams rejected with %v",
				name, d, n, p, m, steps, verr)
		}
		if verr == nil && err != nil {
			t.Fatalf("RunSchemeContext(%s, %d, %d, %d, %d, %d) = %v on a tuple ValidateParams accepted",
				name, d, n, p, m, steps, err)
		}
		if err == nil && len(res.Outputs) != n {
			t.Fatalf("RunSchemeContext(%s, %d, %d, %d, %d, %d): %d outputs, want %d",
				name, d, n, p, m, steps, len(res.Outputs), n)
		}
	})
}
