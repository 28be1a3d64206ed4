package simulate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bsmp/internal/guest"
	"bsmp/internal/network"
)

// TestValidateParams pins the validation boundary: every malformed tuple
// is rejected with a typed *ParamError naming the offending field, and
// valid tuples pass.
func TestValidateParams(t *testing.T) {
	cases := []struct {
		label             string
		scheme            string
		d, n, p, m, steps int
		field             string // "" = expect nil error
	}{
		{"valid blocked d1", "blocked", 1, 16, 1, 4, 8, ""},
		{"valid blocked d2", "blocked", 2, 16, 1, 4, 8, ""},
		{"valid blocked d3", "blocked", 3, 27, 1, 2, 6, ""},
		{"valid naive d2", "naive", 2, 16, 4, 2, 8, ""},
		{"valid multi d1", "multi", 1, 64, 4, 4, 32, ""},
		{"valid multi d2", "multi", 2, 64, 4, 4, 8, ""},
		{"valid unidc d1", "unidc", 1, 32, 1, 1, 16, ""},

		{"zero n", "blocked", 1, 0, 1, 4, 8, "n"},
		{"negative n", "multi", 1, -8, 1, 4, 8, "n"},
		{"zero p", "multi", 1, 16, 0, 4, 8, "p"},
		{"zero m", "blocked", 1, 16, 1, 0, 8, "m"},
		{"zero steps", "blocked", 1, 16, 1, 4, 0, "steps"},
		{"p exceeds n", "multi", 1, 8, 16, 1, 8, "p"},
		{"p does not divide n", "multi", 1, 10, 3, 1, 8, "p"},
		{"blocked non-square n", "blocked", 2, 10, 1, 4, 8, "n"},
		{"blocked non-cube n", "blocked", 3, 10, 1, 4, 8, "n"},
		{"blocked multiprocessor", "blocked", 1, 16, 2, 4, 8, "p"},
		{"unidc dense memory", "unidc", 1, 16, 1, 2, 8, "m"},
		{"unidc multiprocessor", "unidc", 1, 16, 2, 1, 8, "p"},
		{"multi non-square n", "multi", 2, 10, 1, 1, 8, "n"},
		{"multi non-cube n", "multi", 3, 100, 1, 1, 8, "n"},
		{"naive non-square n", "naive", 2, 12, 4, 1, 8, "n"},
		{"naive non-square p", "naive", 2, 36, 6, 1, 8, "p"},
		{"overflow per-node memory", "blocked", 1, 1 << 40, 1, 1 << 40, 8, "m"},
		{"overflow dag volume", "unidc", 1, 1 << 40, 1, 1, 1 << 40, "steps"},
	}
	for _, c := range cases {
		err := ValidateParams(c.scheme, c.d, c.n, c.p, c.m, c.steps)
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.label, err)
			}
			continue
		}
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %T (%v), want *ParamError", c.label, err, err)
			continue
		}
		if pe.Field != c.field {
			t.Errorf("%s: rejected field %q, want %q (%v)", c.label, pe.Field, c.field, pe)
		}
		if pe.Scheme != c.scheme {
			t.Errorf("%s: ParamError.Scheme = %q, want %q", c.label, pe.Scheme, c.scheme)
		}
	}
}

// TestValidateParamsUnknownScheme keeps the registry lookup error for
// unregistered (name, d) pairs.
func TestValidateParamsUnknownScheme(t *testing.T) {
	for _, c := range []struct {
		name string
		d    int
	}{{"nope", 1}, {"multi", 4}, {"naive", 3}} {
		err := ValidateParams(c.name, c.d, 16, 1, 1, 8)
		if err == nil || !strings.Contains(err.Error(), "no scheme") {
			t.Errorf("ValidateParams(%q, %d): err = %v, want registry lookup error", c.name, c.d, err)
		}
	}
}

// TestRunSchemeRejectsWithoutPanic drives malformed tuples through the
// full registry path — the satellite bugfix: these previously reached
// internal constructor panics (e.g. analytic.IntSqrtExact on a
// non-square n for blocked d=2).
func TestRunSchemeRejectsWithoutPanic(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 3}}
	cases := []struct {
		label             string
		scheme            string
		d, n, p, m, steps int
	}{
		{"blocked d2 non-square n", "blocked", 2, 10, 1, 4, 4},
		{"blocked d3 non-cube n", "blocked", 3, 10, 1, 4, 4},
		{"unidc d2 non-square n", "unidc", 2, 10, 1, 1, 4},
		{"multi d2 non-square n", "multi", 2, 10, 1, 1, 4},
		{"multi d3 non-cube n", "multi", 3, 12, 1, 1, 4},
		{"naive d2 non-square n", "naive", 2, 12, 4, 1, 4},
		{"naive d2 non-square p", "naive", 2, 36, 6, 1, 4},
		{"naive d2 p not dividing n", "naive", 2, 16, 3, 1, 4},
		{"negative everything", "multi", 1, -4, -2, -1, -8},
		{"zero steps", "blocked", 1, 16, 1, 4, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: RunScheme panicked: %v", c.label, r)
				}
			}()
			if _, err := RunSchemeContext(context.Background(), c.scheme, c.d, c.n, c.p, c.m, c.steps, prog, SchemeConfig{}); err == nil {
				t.Errorf("%s: RunScheme accepted a malformed tuple", c.label)
			}
		}()
	}
}

// TestSchemeRunValidatesDirectly checks that grabbing a Scheme from the
// registry and calling Run without going through RunScheme still hits the
// validation boundary.
func TestSchemeRunValidatesDirectly(t *testing.T) {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 3}}
	s, err := SchemeByName("blocked", 2)
	if err != nil {
		t.Fatal(err)
	}
	var pe *ParamError
	if _, err := s.Run(context.Background(), 10, 1, 4, 4, prog, SchemeConfig{}); !errors.As(err, &pe) {
		t.Fatalf("direct Run(non-square n): err = %v, want *ParamError", err)
	}
}

// TestRegisteredDimensionsConstructible is the NewMachine doc regression
// test: every registered scheme's dimension admits a constructible
// machine Md(n, p, m) — in particular the d = 3 entries, which the old
// doc comment ("d in {1, 2}") implied were not supported.
func TestRegisteredDimensionsConstructible(t *testing.T) {
	// Smallest valid (n, p) per dimension with p > 1 where the scheme
	// allows it.
	shapes := map[int]struct{ n, p int }{
		1: {8, 2},
		2: {16, 4},
		3: {27, 1},
	}
	for _, s := range Schemes {
		sh, ok := shapes[s.D]
		if !ok {
			t.Fatalf("scheme %q registered for unknown dimension %d", s.Name, s.D)
		}
		p := sh.p
		if !s.Multiproc {
			p = 1
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("scheme %q d=%d: network.New(%d, %d, %d, 1) panicked: %v",
						s.Name, s.D, s.D, sh.n, p, r)
				}
			}()
			ma := network.New(s.D, sh.n, p, 1)
			if ma.D != s.D {
				t.Errorf("scheme %q: built machine has d=%d, want %d", s.Name, ma.D, s.D)
			}
		}()
	}
}
