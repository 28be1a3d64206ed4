package simulate

import (
	"fmt"
	"math"

	"bsmp/internal/topology"
)

// This file is the panic-free validation boundary in front of the scheme
// registry. The internal constructors (network.New, hram.New, the lattice
// builders, analytic.IntSqrtExact) deliberately panic on malformed
// geometry: inside the library those conditions are invariant violations,
// and a silent rounding would misattribute every distance charge. But the
// registry is a service surface — cmd/tradeoff, cmd/experiments and the
// bsmpd daemon all feed it caller-controlled tuples — so every constraint
// a constructor would enforce by panicking is re-checked here first and
// reported as a typed ParamError. The contract, pinned by the fuzz test
// at the repository root: RunSchemeContext never panics on any (name, d, n, p,
// m, steps); panics that remain in internal packages are unreachable
// through the registry and serve as invariant assertions only.

// ParamError reports one parameter constraint violation: which field of
// the (scheme, d, n, p, m, steps) tuple is out of range, the constraint
// it violates, and the offending value. It marshals directly into the
// bsmpd error payload.
type ParamError struct {
	// Scheme is the registry key the tuple was validated against, or
	// the engine a direct entry point runs ("guest" for
	// GuestTimeContext, "uni-naive" for UniNaiveDagContext); empty when
	// the violation precedes scheme lookup.
	Scheme string `json:"scheme,omitempty"`
	// Field names the offending parameter: "scheme", "d", "n", "p",
	// "m", "steps", "cycles", "theta" or "faults".
	Field string `json:"field"`
	// Constraint states the violated requirement in words.
	Constraint string `json:"constraint"`
	// Got is the rejected value: the scheme name for Field "scheme",
	// the integer value otherwise.
	Got any `json:"got"`
}

func (e *ParamError) Error() string {
	if e.Scheme != "" {
		return fmt.Sprintf("simulate: scheme %q: parameter %s: %s (got %v)",
			e.Scheme, e.Field, e.Constraint, e.Got)
	}
	return fmt.Sprintf("simulate: parameter %s: %s (got %v)", e.Field, e.Constraint, e.Got)
}

// perr builds a ParamError for scheme with an integer Got.
func perr(scheme, field, constraint string, got int) *ParamError {
	return &ParamError{Scheme: scheme, Field: field, Constraint: constraint, Got: got}
}

// perrF builds a ParamError for scheme with a float Got (the Θ-model
// delay ratio is the registry's only non-integer parameter).
func perrF(scheme, field, constraint string, got float64) *ParamError {
	return &ParamError{Scheme: scheme, Field: field, Constraint: constraint, Got: got}
}

// validateTheta checks the Θ-model delay ratio: 0 means unset
// (lockstep), any other value must be finite and >= 1 —
// delays live in [distance, Θ·distance], so a ratio below 1 would mean
// faster-than-bounded-speed propagation.
func validateTheta(scheme string, theta float64) *ParamError {
	if theta == 0 {
		return nil
	}
	if math.IsNaN(theta) || math.IsInf(theta, 0) || theta < 1 {
		return perrF(scheme, "theta", "delay ratio Θ must be finite and >= 1", theta)
	}
	return nil
}

// validateFaults checks the static fault density: 0 means fault-free
// (and is the only value the fault-free schemes accept), any other
// value must lie in [0, 1) — a density of 1 or more leaves no live
// processor by construction, and NaN orders with nothing.
func validateFaults(scheme string, f float64) *ParamError {
	if f == 0 {
		return nil
	}
	if math.IsNaN(f) || f < 0 || f >= 1 {
		return perrF(scheme, "faults", "fault density must lie in [0, 1)", f)
	}
	return nil
}

// validateCommon checks the constraints shared by every scheme: positive
// parameters, p <= n with p | n, and machine/dag volumes that fit in an
// int (the naive host uses density m+1 and the uniprocessor dags carry
// n·(steps+1) vertices, so both products are bounds-checked before any
// allocation-sized arithmetic can wrap).
func validateCommon(scheme string, d, n, p, m, steps int) *ParamError {
	if d < 1 || d > 3 {
		return perr(scheme, "d", "mesh dimension must be 1, 2 or 3", d)
	}
	if n < 1 {
		return perr(scheme, "n", "machine volume must be >= 1", n)
	}
	if p < 1 {
		return perr(scheme, "p", "host processor count must be >= 1", p)
	}
	if m < 1 {
		return perr(scheme, "m", "memory density must be >= 1", m)
	}
	if steps < 1 {
		return perr(scheme, "steps", "guest step count must be >= 1", steps)
	}
	if p > n {
		return perr(scheme, "p", fmt.Sprintf("must satisfy p <= n = %d", n), p)
	}
	if n%p != 0 {
		return perr(scheme, "p", fmt.Sprintf("must divide n = %d", n), p)
	}
	// Overflow guards: per-node memory (m+1)·(n/p) words, total memory
	// n·(m+1) words, dag volume n·(steps+1) vertices.
	if per := n / p; m+1 > math.MaxInt/per {
		return perr(scheme, "m", fmt.Sprintf("per-node memory (m+1)·(n/p) overflows with n/p = %d", per), m)
	}
	if m+1 > math.MaxInt/n {
		return perr(scheme, "m", fmt.Sprintf("total memory n·(m+1) overflows with n = %d", n), m)
	}
	if steps+1 > math.MaxInt/n {
		return perr(scheme, "steps", fmt.Sprintf("dag volume n·(steps+1) overflows with n = %d", n), steps)
	}
	return nil
}

// shapeError checks the mesh-shape constraint on a volume v (a perfect
// square for d = 2, a perfect cube for d = 3).
func shapeError(scheme, field string, d, v int) *ParamError {
	switch d {
	case 2:
		if _, ok := topology.IntRoot(2, v); !ok {
			return perr(scheme, field, "d=2 mesh requires a perfect square", v)
		}
	case 3:
		if _, ok := topology.IntRoot(3, v); !ok {
			return perr(scheme, field, "d=3 mesh requires a perfect cube", v)
		}
	}
	return nil
}

// validateNaiveShape checks the naive scheme's region decomposition:
// d must be 1 or 2 (the naive executor has no d = 3 region geometry),
// and for d = 2 the guest (n), the host (p) and the per-host region
// (n/p) must all be perfect squares.
func validateNaiveShape(d, n, p int) *ParamError {
	if d != 1 && d != 2 {
		return perr("naive", "d", "naive scheme supports d in {1, 2}", d)
	}
	if d != 2 {
		return nil
	}
	if e := shapeError("naive", "n", 2, n); e != nil {
		return e
	}
	if _, ok := topology.IntRoot(2, p); !ok {
		return perr("naive", "p", "d=2 naive host requires a perfect-square p", p)
	}
	// The region patch n/p needs no separate check: p | n with n and p
	// both perfect squares forces n/p to be a perfect square too.
	return nil
}

// validateGuest is the geometry check in front of every direct engine
// entry point (BlockedContext, MultiContext, UniDCContext,
// UniNaiveDagContext, GuestTimeContext, ...), which the registry does
// not guard: a mesh dimension d in {1, 2, 3}, a volume n >= 1, a
// density m >= 1, at least minSteps guest steps, memory n·m and dag
// volume n·(steps+1) that fit an int, and a d-shaped n. The internal
// constructors panic on each of these, so a bad tuple stops here with
// a ParamError naming the field and the caller.
func validateGuest(scheme string, d, n, m, steps, minSteps int) *ParamError {
	if d < 1 || d > 3 {
		return perr(scheme, "d", "mesh dimension must be 1, 2 or 3", d)
	}
	if n < 1 {
		return perr(scheme, "n", "machine volume must be >= 1", n)
	}
	if m < 1 {
		return perr(scheme, "m", "memory density must be >= 1", m)
	}
	if m > math.MaxInt/n {
		return perr(scheme, "m", fmt.Sprintf("total memory n·m overflows with n = %d", n), m)
	}
	if steps < minSteps {
		return perr(scheme, "steps", fmt.Sprintf("guest step count must be >= %d", minSteps), steps)
	}
	if steps+1 > math.MaxInt/n {
		return perr(scheme, "steps", fmt.Sprintf("dag volume n·(steps+1) overflows with n = %d", n), steps)
	}
	return shapeError(scheme, "n", d, n)
}

// uniprocOnly is the Validate hook shared by the p = 1 schemes.
func uniprocOnly(scheme string, d int) func(n, p, m, steps int, cfg SchemeConfig) *ParamError {
	return func(n, p, m, steps int, cfg SchemeConfig) *ParamError {
		if p != 1 {
			return perr(scheme, "p", "uniprocessor scheme requires p = 1", p)
		}
		return shapeError(scheme, "n", d, n)
	}
}

// ValidateParams checks a full (scheme, d, n, p, m, steps) tuple against
// the registered scheme's constraints without constructing anything,
// returning nil or a typed *ParamError (or the registry's lookup error
// for an unknown (name, d) pair). The optional cfg carries the per-run
// knobs some schemes constrain (the multi-theta delay ratio Θ); omitting
// it validates against the zero config. RunSchemeContext calls it before
// dispatching, so no parameter combination reachable through the
// registry can trip an internal constructor panic.
func ValidateParams(name string, d, n, p, m, steps int, cfg ...SchemeConfig) error {
	var c SchemeConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	s, err := SchemeByName(name, d)
	if err != nil {
		return err
	}
	if e := validateCommon(name, d, n, p, m, steps); e != nil {
		return e
	}
	if s.Validate != nil {
		if e := s.Validate(n, p, m, steps, c); e != nil {
			return e
		}
	}
	return nil
}
