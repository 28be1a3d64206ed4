package simulate

import (
	"context"
	"strings"
	"testing"

	"bsmp/internal/guest"
)

func TestSchemesRegistryComplete(t *testing.T) {
	want := map[string][]int{
		"naive":            {1, 2},
		"unidc":            {1, 2, 3},
		"blocked":          {1, 2, 3},
		"blocked-analytic": {1},
		"multi":            {1, 2, 3},
		"multi-theta":      {1, 2, 3},
	}
	seen := map[string]map[int]bool{}
	for _, s := range Schemes {
		if s.Run == nil || s.Description == "" {
			t.Errorf("scheme %q d=%d: missing Run or Description", s.Name, s.D)
		}
		if seen[s.Name] == nil {
			seen[s.Name] = map[int]bool{}
		}
		if seen[s.Name][s.D] {
			t.Errorf("duplicate registry entry (%q, %d)", s.Name, s.D)
		}
		seen[s.Name][s.D] = true
	}
	for name, ds := range want {
		for _, d := range ds {
			if !seen[name][d] {
				t.Errorf("registry missing (%q, %d)", name, d)
			}
			sc, err := SchemeByName(name, d)
			if err != nil {
				t.Errorf("SchemeByName(%q, %d): %v", name, d, err)
			} else if sc.Name != name || sc.D != d {
				t.Errorf("SchemeByName(%q, %d) returned (%q, %d)", name, d, sc.Name, sc.D)
			}
		}
	}
	total := 0
	for _, ds := range seen {
		total += len(ds)
	}
	if total != len(Schemes) {
		t.Errorf("registry has %d entries, %d unique (name, d) pairs", len(Schemes), total)
	}
}

func TestRunSchemeMatchesDirectCalls(t *testing.T) {
	// The registry is a lookup table, not a reimplementation: each entry
	// must report the exact virtual time of the direct call it wraps.
	prog := netProg(0)

	direct, err := MultiContext(context.Background(), 1, 64, 4, 4, 16, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaReg, err := RunSchemeContext(context.Background(), "multi", 1, 64, 4, 4, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if viaReg.Time != direct.Time || viaReg.PrepTime != direct.PrepTime {
		t.Errorf("multi d=1: registry (%v, %v) != direct (%v, %v)",
			viaReg.Time, viaReg.PrepTime, direct.Time, direct.PrepTime)
	}

	db, err := BlockedContext(context.Background(), 1, 64, 4, 16, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunSchemeContext(context.Background(), "blocked", 1, 64, 1, 4, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Time != db.Time {
		t.Errorf("blocked d=1: registry %v != direct %v", rb.Time, db.Time)
	}

	dn, err := NaiveContext(context.Background(), 1, 64, 4, 4, 16, prog)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := RunSchemeContext(context.Background(), "naive", 1, 64, 4, 4, 16, prog, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Time != dn.Time {
		t.Errorf("naive d=1: registry %v != direct %v", rn.Time, dn.Time)
	}

	dagGuest := guest.Rule90{Seed: 1}
	du, err := UniDCContext(context.Background(), 1, 64, 64, 8, dagGuest)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := RunSchemeContext(context.Background(), "unidc", 1, 64, 1, 1, 64, guest.AsNetwork{G: dagGuest}, SchemeConfig{Leaf: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ru.Time != du.Time {
		t.Errorf("unidc d=1: registry %v != direct %v", ru.Time, du.Time)
	}
	if err := VerifyDag(ru.Result, 1, 64, dagGuest); err != nil {
		t.Errorf("unidc d=1 via registry: %v", err)
	}
}

func TestRunSchemeErrors(t *testing.T) {
	prog := netProg(0)
	cases := []struct {
		label string
		run   func() error
		want  string
	}{
		{"unknown name", func() error {
			_, err := RunSchemeContext(context.Background(), "fancy", 1, 64, 1, 1, 16, prog, SchemeConfig{})
			return err
		}, "no scheme"},
		{"unregistered dimension", func() error {
			_, err := RunSchemeContext(context.Background(), "multi", 4, 64, 4, 1, 16, prog, SchemeConfig{})
			return err
		}, "no scheme"},
		{"naive has no d=3 entry", func() error {
			_, err := RunSchemeContext(context.Background(), "naive", 3, 64, 4, 1, 16, prog, SchemeConfig{})
			return err
		}, "no scheme"},
		{"unidc is uniprocessor", func() error {
			_, err := RunSchemeContext(context.Background(), "unidc", 1, 64, 2, 1, 16, guest.AsNetwork{G: guest.Rule90{Seed: 1}}, SchemeConfig{})
			return err
		}, "uniprocessor"},
		{"unidc needs m=1", func() error {
			_, err := RunSchemeContext(context.Background(), "unidc", 1, 64, 1, 2, 16, guest.AsNetwork{G: guest.Rule90{Seed: 1}}, SchemeConfig{})
			return err
		}, "m=1"},
		{"unidc needs a dag view", func() error {
			_, err := RunSchemeContext(context.Background(), "unidc", 1, 64, 1, 1, 16, guest.RestrictMem{P: guest.MixCA{Seed: 1}, Words: 1}, SchemeConfig{})
			return err
		}, "dag view"},
		{"blocked is uniprocessor", func() error {
			_, err := RunSchemeContext(context.Background(), "blocked", 1, 64, 2, 4, 16, prog, SchemeConfig{})
			return err
		}, "uniprocessor"},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: no error", c.label)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.label, err, c.want)
		}
	}
}
