package simulate

import (
	"context"
	"testing"

	"bsmp/internal/guest"
	"bsmp/internal/lattice"
)

// translated returns d moved by (dx, dy, dz, dt) with its clip: every
// t + x_a range by dt + dx_a and every t - x_a range by dt - dx_a.
func translated(d lattice.Domain, dx [3]int, dt int) lattice.Domain {
	for a := 0; a < d.Dim; a++ {
		for i := range 2 {
			d.P[a][i] += dt + dx[a]
			d.M[a][i] += dt - dx[a]
		}
	}
	d.Clip = shiftClip(d.Clip, dx[0], dx[1], dx[2], dt)
	return d
}

// Translating a domain and its clip together must not change its
// canonical value — that is the congruence the subtree memo keys on —
// while the canonical domain must keep the original's exact point count.
func TestCanonicalDiamondTranslationInvariant(t *testing.T) {
	base := lattice.Domain{Dim: 1, P: [3][2]int{{5, 5 + 9}}, M: [3][2]int{{-3, -3 + 6}},
		Clip: lattice.Clip{X0: 0, X1: 64, Y0: 0, Y1: 1, Z0: 0, Z1: 1, T0: 0, T1: 16}}
	canon := canonicalDomain(base)
	if canon.Size() != base.Size() {
		t.Fatalf("canonical size %d != original %d", canon.Size(), base.Size())
	}
	for _, shift := range [][2]int{{1, 0}, {0, 1}, {3, 2}, {-2, 5}} {
		dx, dt := shift[0], shift[1]
		if got := canonicalDomain(translated(base, [3]int{dx}, dt)); got != canon {
			t.Errorf("shift (%d,%d): canonical %v != %v", dx, dt, got, canon)
		}
	}
}

// Clip edges farther than the margin from the domain are equivalent to
// unbounded and collapse to one canonical value; edges at or inside the
// margin are preserved (they change preboundary/live-out structure).
func TestCanonicalDiamondClipClamping(t *testing.T) {
	mk := func(t1 int) lattice.Domain {
		return lattice.NewDiamond(0, 0, 8,
			lattice.Clip{X0: -100, X1: 100, Y0: 0, Y1: 1, Z0: 0, Z1: 1, T0: 0, T1: t1})
	}
	bb := mk(1000).BoundingClip()
	far1 := canonicalDomain(mk(bb.T1 + 5))
	far2 := canonicalDomain(mk(bb.T1 + 50))
	if far1 != far2 {
		t.Errorf("distant clip edges did not collapse: %v vs %v", far1, far2)
	}
	if near := canonicalDomain(mk(bb.T1 - 1)); near == far1 {
		t.Error("binding clip edge collapsed with unbounded one")
	}
}

func TestCanonicalBox4TranslationInvariant(t *testing.T) {
	base := lattice.NewOctahedron(4, -2, 3, -1, 6, lattice.ClipAll2D(32, 16))
	canon := canonicalDomain(base)
	if canon.Size() != base.Size() {
		t.Fatalf("canonical size %d != original %d", canon.Size(), base.Size())
	}
	for _, sh := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {2, -1, 3}} {
		dx, dy, dt := sh[0], sh[1], sh[2]
		if got := canonicalDomain(translated(base, [3]int{dx, dy}, dt)); got != canon {
			t.Errorf("shift (%d,%d,%d): canonical %v != %v", dx, dy, dt, got, canon)
		}
	}
}

func TestCanonicalBox6TranslationInvariant(t *testing.T) {
	base := lattice.Domain{Dim: 3,
		P:    [3][2]int{{2, 2 + 4}, {1, 1 + 4}, {3, 3 + 4}},
		M:    [3][2]int{{-1, -1 + 4}, {0, 0 + 4}, {-2, -2 + 4}},
		Clip: lattice.ClipAll3D(16, 8)}
	canon := canonicalDomain(base)
	if canon.Size() != base.Size() {
		t.Fatalf("canonical size %d != original %d", canon.Size(), base.Size())
	}
	for _, sh := range [][4]int{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, -2, 2, 3}} {
		dx, dy, dz, dt := sh[0], sh[1], sh[2], sh[3]
		if got := canonicalDomain(translated(base, [3]int{dx, dy, dz}, dt)); got != canon {
			t.Errorf("shift %v: canonical %v != %v", sh, got, canon)
		}
	}
}

// Keying a domain allocates nothing: canonicalDomain and refPoint read
// the domain value in place, and a plan lookup that hits the planning
// memo does too, at d = 1, 2, 3.
func TestDomainKeysAllocateNothing(t *testing.T) {
	for _, tc := range []struct{ d, n, steps int }{{1, 64, 17}, {2, 256, 17}, {3, 512, 9}} {
		g, root := guestDag(tc.d, tc.n, tc.steps)
		b := newBlockedExec(context.Background(), g, nil, 1, 1, tc.steps, 2, newBlockedGeom(tc.d, tc.n))
		kid := root.Children()[0]
		if _, err := b.spaceNeeded(kid); err != nil {
			t.Fatal(err)
		}
		var shape lattice.Domain
		var ref lattice.Point
		var plan blockedPlan
		for _, c := range []struct {
			what string
			f    func()
		}{
			{"canonicalDomain", func() { shape = canonicalDomain(kid) }},
			{"refPoint", func() { ref, _ = refPoint(kid) }},
			{"memo-hit spaceNeeded", func() { plan, _ = b.spaceNeeded(kid) }},
		} {
			if n := testing.AllocsPerRun(100, c.f); n != 0 {
				t.Errorf("d=%d: %s allocated %v times per call, want 0", tc.d, c.what, n)
			}
		}
		if shape.Dim != tc.d || !kid.Contains(ref) || plan.space == 0 {
			t.Errorf("d=%d: shape %v, reference point %v, plan %+v", tc.d, shape, ref, plan)
		}
	}
}

// The guest address classifier must be translation-invariantly sound:
// equal classes at two reference sites imply equal addresses at every
// uniformly translated pair — checked by brute force over a window.
func TestAddrClassSoundness(t *testing.T) {
	progs := []struct {
		name string
		p    addrClasser
		addr func(node, step, m int) int
	}{
		{"mixca", guest.MixCA{Seed: 3}, guest.MixCA{Seed: 3}.Address},
		{"rule90", guest.Rule90{}, guest.Rule90{}.Address},
		{"shiftreg", guest.ShiftRegister{}, guest.ShiftRegister{}.Address},
		{"asnetwork-mixca", guest.AsNetwork{G: guest.MixCA{Seed: 9}},
			guest.AsNetwork{G: guest.MixCA{Seed: 9}}.Address},
		{"restrictmem-mixca", guest.RestrictMem{P: guest.MixCA{Seed: 9}, Words: 3},
			guest.RestrictMem{P: guest.MixCA{Seed: 9}, Words: 3}.Address},
	}
	const m = 5
	for _, pr := range progs {
		for n1 := 0; n1 < 2*m; n1++ {
			for s1 := 0; s1 < 2*m; s1++ {
				for n2 := 0; n2 < 2*m; n2++ {
					for s2 := 0; s2 < 2*m; s2++ {
						c1, ok1 := pr.p.AddrClass(n1, s1, m)
						c2, ok2 := pr.p.AddrClass(n2, s2, m)
						if !ok1 || !ok2 {
							t.Fatalf("%s: unclassifiable", pr.name)
						}
						if c1 != c2 {
							continue
						}
						for dn := 0; dn < m; dn++ {
							for ds := 0; ds < m; ds++ {
								if pr.addr(n1+dn, s1+ds, m) != pr.addr(n2+dn, s2+ds, m) {
									t.Fatalf("%s: class %d at (%d,%d) and (%d,%d) but Address differs at shift (%d,%d)",
										pr.name, c1, n1, s1, n2, s2, dn, ds)
								}
							}
						}
					}
				}
			}
		}
	}
	if _, ok := progClass(guest.AsNetwork{G: guest.OETSort{}}, 0, 0, m); ok {
		t.Error("unclassifiable guest reported a class")
	}
}
