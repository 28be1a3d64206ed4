package analytic

import (
	"fmt"
	"math"

	"bsmp/internal/topology"
)

// Integer-geometry helpers shared by the simulation schemes: strip/span
// rounding and panicking exact perfect-power roots over
// topology.IntRoot. They are part of the same closed-form layer as
// OptimalS and the range boundaries: the executable schemes quantize the
// analytic optima with them.

// RoundToPow2Divisor rounds target to the nearest power of two in
// [1, limit] (limit itself must be a power of two for exact
// divisibility); when limit is not a power of two, the result is further
// halved until it divides limit.
func RoundToPow2Divisor(target float64, limit int) int {
	if target < 1 {
		target = 1
	}
	e := math.Round(math.Log2(target))
	s := int(math.Exp2(e))
	if s < 1 {
		s = 1
	}
	for s > limit {
		s /= 2
	}
	// Ensure divisibility even when limit is not a power of two.
	for s > 1 && limit%s != 0 {
		s /= 2
	}
	return s
}

// IntSqrtExact returns √n for a perfect square n, and panics otherwise:
// the d = 2 schemes require a square mesh, and a silent rounding would
// misattribute every distance charge.
func IntSqrtExact(n int) int {
	r, ok := topology.IntRoot(2, n)
	if !ok {
		panic(fmt.Sprintf("analytic: %d is not a perfect square", n))
	}
	return r
}

// IntCbrtExact returns ∛n for a perfect cube n, and panics otherwise.
func IntCbrtExact(n int) int {
	r, ok := topology.IntRoot(3, n)
	if !ok {
		panic(fmt.Sprintf("analytic: %d is not a perfect cube", n))
	}
	return r
}
