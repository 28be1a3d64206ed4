package simulate

import (
	"bsmp/internal/lattice"
	"bsmp/internal/network"
)

// This file defines the congruence key of the subtree memo: two recursion
// subtrees are congruent — and may share one memoized record — when their
// domains are identical up to a lattice translation, their clip boxes agree
// near the domain, and the guest program's address pattern matches at
// corresponding points. The key is O(1) to build, so a memo hit costs
// nothing proportional to the subtree.

// addrClasser is the optional interface a guest program implements to
// declare its Address pattern classifiable: AddrClass(n1,s1,m) ==
// AddrClass(n2,s2,m) must imply Address(n1+dn, s1+ds, m) ==
// Address(n2+dn, s2+ds, m) for every uniform translation (dn, ds). A
// program that cannot promise this returns ok = false (or simply does not
// implement the interface) and subtree memoization stays off for it —
// memoization is opt-in per guest, never assumed.
type addrClasser interface {
	AddrClass(node, step, memSize int) (uint64, bool)
}

// progClass classifies prog's address pattern at the reference site
// (node, step), or reports ok = false when prog is unclassifiable.
func progClass(prog network.Program, node, step, m int) (uint64, bool) {
	ac, ok := prog.(addrClasser)
	if !ok {
		return 0, false
	}
	return ac.AddrClass(node, step, m)
}

// subtreeKey identifies a congruence class of recursion subtrees. All
// fields are comparable; shape is the canonical translated domain, whose
// Dim is the mesh dimension.
type subtreeKey struct {
	m         int  // words per guest node
	iw        int  // image words per column
	leafSpan  int  // recursion cutoff — fixes the subtree's inner shape
	pipelined bool // hram block-transfer pricing mode
	side      int  // node-index stride of the mesh (0 for the d = 1 line)
	shape     lattice.Domain
	class     uint64 // address class at the canonical reference point
	prog      string // guest program fingerprint
}

// mod2 is the non-negative parity of v.
func mod2(v int) int { return (v%2 + 2) % 2 }

// inflateClip grows the box by k in every direction.
func inflateClip(c lattice.Clip, k int) lattice.Clip {
	return lattice.Clip{
		X0: c.X0 - k, X1: c.X1 + k,
		Y0: c.Y0 - k, Y1: c.Y1 + k,
		Z0: c.Z0 - k, Z1: c.Z1 + k,
		T0: c.T0 - k, T1: c.T1 + k,
	}
}

// shiftClip translates the box by (dx, dy, dz, dt).
func shiftClip(c lattice.Clip, dx, dy, dz, dt int) lattice.Clip {
	return lattice.Clip{
		X0: c.X0 + dx, X1: c.X1 + dx,
		Y0: c.Y0 + dy, Y1: c.Y1 + dy,
		Z0: c.Z0 + dz, Z1: c.Z1 + dz,
		T0: c.T0 + dt, T1: c.T1 + dt,
	}
}

// canonicalDomain translates d so its low rotated corners sit at the
// canonical position (the ranges of t + x_a at 0, that of t - x at 0 or
// 1 to preserve lattice parity, and the other ranges of t - x_a wherever
// the translation takes them) and clamps its clip to the domain's
// bounding box inflated by 2 — wide enough that every computation the
// engines derive from the clip (point membership, preboundary preds one
// step outside the domain, live-out successor tests, the
// machine-boundary relation when the clip equals the graph bounds) is
// unchanged, and narrow enough that congruent translated domains
// canonicalize to the same comparable value. The clamp runs BEFORE the
// translation so effectively-unbounded clip edges never overflow when
// shifted.
func canonicalDomain(d lattice.Domain) lattice.Domain {
	clip := d.Clip.Intersect(inflateClip(d.BoundingClip(), 2))
	// (dt, dx) moves t + x by dp and t - x by dm; dp + dm is even, so
	// both are integers. Each other axis moves so t + x_a lands at 0.
	dp, dm := -d.P[0][0], mod2(d.P[0][0]+d.M[0][0])-d.M[0][0]
	dt := (dp + dm) / 2
	dx := [3]int{(dp - dm) / 2}
	for a := 1; a < d.Dim; a++ {
		dx[a] = -d.P[a][0] - dt
	}
	for a := 0; a < d.Dim; a++ {
		for i := range 2 {
			d.P[a][i] += dt + dx[a]
			d.M[a][i] += dt - dx[a]
		}
	}
	d.Clip = shiftClip(clip, dx[0], dx[1], dx[2], dt)
	return d
}

// refPoint is the canonical reference vertex of a domain — its first
// enumerated point. Congruent domains have reference points at
// corresponding translated positions.
func refPoint(dom lattice.Domain) (lattice.Point, bool) {
	var ref lattice.Point
	found := false
	dom.Points(func(p lattice.Point) bool {
		ref, found = p, true
		return false
	})
	return ref, found
}
