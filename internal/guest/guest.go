// Package guest provides the workloads simulated throughout the
// repository: the network computations that play the role of the paper's
// guest machine Md(n, n, m).
//
// Each guest implements both interfaces used by the repository's two views
// of a computation:
//
//   - dag.Program — the pure dag semantics of Definition 3 (used by the
//     m = 1 divide-and-conquer runs of Theorems 2 and 5), and
//   - network.Program — the machine semantics with per-node m-cell
//     memories and broadcast values (used by guest-time measurement and the
//     m > 1 simulations).
//
// For m = 1 workloads the two views coincide vertex by vertex; tests pin
// that equivalence.
//
// All guests use exact integer dynamics so functional verification between
// executors is bit-exact.
package guest

import (
	"fmt"

	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
)

// Rule90 is the elementary cellular automaton 90 (XOR of the two
// neighbors), a classical systolic workload: chaotic, boundary-sensitive,
// and exactly reproducible. At machine boundaries missing neighbors read
// as 0, matching the truncated dag stencil.
type Rule90 struct {
	// Seed perturbs the initial condition so different experiments do
	// not share fixed points.
	Seed uint64
}

func (r Rule90) initial(x, y int) dag.Value {
	h := uint64(x)*0x9E3779B97F4A7C15 + uint64(y)*0xC2B2AE3D27D4EB4F + r.Seed
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h & 1
}

// Input implements dag.Program. Z folds into the second hash coordinate,
// so d = 1 and d = 2 initial conditions are unchanged (Z = 0).
func (r Rule90) Input(v lattice.Point) dag.Value { return r.initial(v.X, v.Y+131071*v.Z) }

// Step implements dag.Program: XOR of all operands except the center cell
// keeps rule-90 behavior on interior vertices and a well-defined truncated
// rule at boundaries. Operand order is Preds order: for the line
// (left, self, right) — XOR left and right when both present, otherwise
// XOR what exists.
func (r Rule90) Step(v lattice.Point, ops []dag.Value) dag.Value {
	var s dag.Value
	for _, o := range ops {
		s ^= o
	}
	return s & 1
}

// InitAt provides the network initial state at grid coordinates (x, y),
// matching the dag view's Input at the same position.
func (r Rule90) InitAt(x, y int, mem []hram.Word) hram.Word {
	return r.initial(x, y)
}

// Address implements network.Program.
func (r Rule90) Address(node, step, memSize int) int { return 0 }

// AddrClass implements the simulator's address-classification interface:
// the returned label is translation-invariantly sound — equal labels at
// two (node, step) reference points guarantee equal Address values at
// every uniformly translated pair. Rule90 ignores node and step entirely,
// so a single class covers all sites.
func (r Rule90) AddrClass(node, step, memSize int) (uint64, bool) { return 0, true }

// Step implements network.Program: prev is (self, neighbors...); the dag
// operand set is the same multiset, so XOR matches the dag view.
func (r Rule90) Step2(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	var s hram.Word
	for _, p := range prev {
		s ^= p
	}
	return s & 1, cell
}

// MixCA is a dense integer cellular automaton whose step mixes every
// operand with distinct multipliers: unlike Rule90 it is sensitive to
// operand order, which makes it a stronger functional-verification
// workload (any executor that permutes operands or misroutes a value is
// caught).
type MixCA struct{ Seed uint64 }

func (c MixCA) initial(x, y int) dag.Value {
	return dag.Value(x)*0x100000001B3 + dag.Value(y)*0x1B873593 + c.Seed | 1
}

// Input implements dag.Program (Z folds into the second coordinate).
func (c MixCA) Input(v lattice.Point) dag.Value { return c.initial(v.X, v.Y+131071*v.Z) }

// Step implements dag.Program.
func (c MixCA) Step(v lattice.Point, ops []dag.Value) dag.Value {
	s := dag.Value(v.T) * 0x9E3779B1
	for i, o := range ops {
		s = s*31 + o*dag.Value(2*i+3)
	}
	return s
}

// InitAt provides the network initial state at grid coordinates (x, y).
func (c MixCA) InitAt(x, y int, mem []hram.Word) hram.Word {
	for i := range mem {
		mem[i] = dag.Value(x)*131 + dag.Value(y)*8191 + dag.Value(i)*17 + c.Seed
	}
	return c.initial(x, y)
}

// Address implements network.Program: sweeps the memory cyclically so
// every cell participates.
func (c MixCA) Address(node, step, memSize int) int {
	return (node + step) % memSize
}

// AddrClass classifies MixCA's cyclic sweep: Address is (node+step) mod
// memSize, and a uniform translation (dn, ds) shifts every site's address
// by the same (dn+ds) mod memSize — equal residues at a reference point
// imply equal addresses at every translated site.
func (c MixCA) AddrClass(node, step, memSize int) (uint64, bool) {
	return uint64(((node+step)%memSize + memSize) % memSize), true
}

// Step2 implements the network step: combines the addressed cell with the
// neighborhood, returning a new broadcast value and updated cell.
func (c MixCA) Step2(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	s := dag.Value(step) * 0x9E3779B1
	for i, p := range prev {
		s = s*31 + p*dag.Value(2*i+3)
	}
	return s + cell*2654435761, cell ^ (s | 1)
}

// StepRow implements network.RowProgram: it steps the nodes [r.Lo, r.Hi)
// of step r.T for any d, leaving outputs, memory and addresses exactly
// as per-vertex Address and Step2 calls would, and takes every step,
// whatever the range. The step's seed term T·0x9E3779B1·31 is computed
// once, and the address (v+T) mod m starts at (Lo+T) mod m and advances
// by one per node with no division. On a mesh stencil of side at least 3
// it makes one stepLine call per x-line the range touches, so a range
// may start or end mid-line; guests with no stencil (r.Side == 0, such
// as a fault mask with dead nodes) and sides 1 and 2 go through fold
// over the Adj lists.
func (c MixCA) StepRow(r *network.Row) bool {
	n, m, lo, hi, side := len(r.Out), r.M, r.Lo, r.Hi, r.Side
	if lo < 0 || hi > n {
		panic(fmt.Sprintf("guest: row range [%d, %d) outside [0, %d)", lo, hi, n))
	}
	s0 := hram.Word(r.T) * 0x9E3779B1 * 31
	a := (r.T + lo) % m
	if uint(a) >= uint(m) {
		panic(fmt.Sprintf("guest: node %d addressed cell %d of %d at step %d", lo, a, m, r.T))
	}
	if side < 3 { // no stencil, or an axis with no middle class
		fold(r, lo, hi, a, s0)
		return true
	}
	// (y, z) are the coordinates of the line that starts at node x0,
	// kept by counting (d = 1 has one line, and d = 2 no z). A whole
	// line advances the address by side mod m.
	line, wrap := lo/side, side%m
	y, z := line%side, line/side
	for x0 := line * side; x0 < hi; x0 += side {
		a = stepLine(r, x0, max(lo, x0), min(hi, x0+side), y, z, a, wrap, s0)
		if y++; y == side {
			y, z = 0, z+1
		}
	}
	return true
}

// fold steps the nodes [lo, hi) through their Adj lists: self ×3, then
// each neighbor ×5, ×7, … in Adj order, folded into s0 with one
// multiply by 31 per neighbor, as Step2 folds its operands. a is node
// lo's address, in [0, m); fold returns node hi's. The range check up
// front lets the compiler drop the per-node bounds checks, and indexing
// by v over the whole arrays keeps the loop's registers as they were
// for whole rows: a loop over subslices spilled more of them, and the
// sweep-heavy set-up, which replays every grid point through this loop,
// took ~8 % longer with it.
func fold(r *network.Row, lo, hi, a int, s0 hram.Word) int {
	n, m := len(r.Out), r.M
	prev, out, mem, addr := r.Prev[:n], r.Out[:n], r.Mem, r.Addr[:n]
	off, adj := r.Off[:n+1], r.Adj
	if lo < 0 || hi > n {
		panic(fmt.Sprintf("guest: row range [%d, %d) outside [0, %d)", lo, hi, n))
	}
	for v := lo; v < hi; v++ {
		s, k := s0+prev[v]*3, hram.Word(5)
		for _, u := range adj[off[v]:off[v+1]] {
			s = s*31 + prev[u]*k
			k += 2
		}
		i := v*m + a
		cell := mem[i]
		out[v], mem[i], addr[v] = s+cell*2654435761, cell^(s|1), a
		if a++; a == m {
			a = 0
		}
	}
	return a
}

// Powers of fold's multiplier.
const (
	p1 = 31
	p2 = p1 * 31
	p3 = p2 * 31
	p4 = p3 * 31
	p5 = p4 * 31
	p6 = p5 * 31
)

// stepLine steps the nodes [v0, v1) of the x-line that starts at node
// x0 and sits at (y, z), on a mesh stencil of side r.Side ≥ 3, at the
// stencil's fixed offsets ±1, ±Side, ±Side². A line's nodes fall in
// three runs, each of one of the mesh's 3^d classes (per axis: low, with
// no − neighbor; middle; high, with no + neighbor): the x = 0 node, the
// middle run and the x = side−1 node. All three share the line's y and
// z neighbors, cyz of them, at offsets o0..o3 in Adj order; an end adds
// one x neighbor first, and the middle run two.
//
// Over c neighbors fold's chain is s0·31^c + self·3·31^c +
// Σ_j neighbor_j·(5+2j)·31^(c−1−j), an identity of polynomials that
// holds in any commutative ring, uint64 arithmetic mod 2⁶⁴ included. The
// multipliers depend on c alone, never on the side, so each class's are
// folded at compile time below, and the independent products need no
// serial multiply per neighbor. The two ends are stepped first, each at
// its own address, and the middle run last, through the loop of its
// line's cyz (cyz = 2(d−1) is an interior line's), so that nothing but
// the loop's own values is live in it. a is node v0's address, in
// [0, m), and wrap is side mod m; stepLine returns node v1's address.
func stepLine(r *network.Row, x0, v0, v1, y, z, a, wrap int, s0 hram.Word) int {
	n, m, side := len(r.Out), r.M, r.Side
	prev, out, mem, addr := r.Prev[:n], r.Out[:n], r.Mem, r.Addr[:n]
	if x0 < 0 || v0 < x0 || v1 > x0+side || x0+side > n {
		panic(fmt.Sprintf("guest: line range [%d, %d) outside [%d, %d) of [0, %d)", v0, v1, x0, x0+side, n))
	}
	var o [4]int
	cyz := 0
	yz, stride := [2]int{y, z}, [2]int{side, side * side}
	for i, c := range yz[:r.D-1] {
		if c > 0 {
			o[cyz], cyz = -stride[i], cyz+1
		}
		if c < side-1 {
			o[cyz], cyz = stride[i], cyz+1
		}
	}
	o0, o1, o2, o3 := o[0], o[1], o[2], o[3]
	// next is node v1's address; node v's is a + v − v0, mod m.
	next := a + wrap
	if v0 != x0 || v1 != x0+side {
		next = a + (v1-v0)%m
	}
	if next >= m {
		next -= m
	}
	lo, hi := max(v0, x0+1), min(v1, x0+side-1)
	for _, end := range [2]struct{ v, ox int }{{x0, 1}, {x0 + side - 1, -1}} {
		v, ox := end.v, end.ox
		if v < v0 || v >= v1 {
			continue
		}
		var s hram.Word
		switch cyz {
		case 0:
			s = s0*p1 + prev[v]*(3*p1) + prev[v+ox]*5
		case 1:
			s = s0*p2 + prev[v]*(3*p2) + prev[v+ox]*(5*p1) + prev[v+o0]*7
		case 2:
			s = s0*p3 + prev[v]*(3*p3) + prev[v+ox]*(5*p2) + prev[v+o0]*(7*p1) + prev[v+o1]*9
		case 3:
			s = s0*p4 + prev[v]*(3*p4) + prev[v+ox]*(5*p3) + prev[v+o0]*(7*p2) + prev[v+o1]*(9*p1) +
				prev[v+o2]*11
		default:
			s = s0*p5 + prev[v]*(3*p5) + prev[v+ox]*(5*p4) + prev[v+o0]*(7*p3) + prev[v+o1]*(9*p2) +
				prev[v+o2]*(11*p1) + prev[v+o3]*13
		}
		c := a // the x = 0 node is v0 itself; the x = side−1 node precedes v1
		if ox < 0 {
			if c = next - 1; c < 0 {
				c += m
			}
		}
		i := v*m + c
		cell := mem[i]
		out[v], mem[i], addr[v] = s+cell*2654435761, cell^(s|1), c
	}
	if lo >= hi {
		return next
	}
	if lo > v0 {
		if a++; a == m {
			a = 0
		}
	}
	switch cyz {
	case 0:
		s0 *= p2
		for v := lo; v < hi; v++ {
			s := s0 + prev[v]*(3*p2) + prev[v-1]*(5*p1) + prev[v+1]*7
			i := v*m + a
			cell := mem[i]
			out[v], mem[i], addr[v] = s+cell*2654435761, cell^(s|1), a
			if a++; a == m {
				a = 0
			}
		}
	case 1:
		s0 *= p3
		for v := lo; v < hi; v++ {
			s := s0 + prev[v]*(3*p3) + prev[v-1]*(5*p2) + prev[v+1]*(7*p1) + prev[v+o0]*9
			i := v*m + a
			cell := mem[i]
			out[v], mem[i], addr[v] = s+cell*2654435761, cell^(s|1), a
			if a++; a == m {
				a = 0
			}
		}
	case 2:
		s0 *= p4
		for v := lo; v < hi; v++ {
			s := s0 + prev[v]*(3*p4) + prev[v-1]*(5*p3) + prev[v+1]*(7*p2) + prev[v+o0]*(9*p1) +
				prev[v+o1]*11
			i := v*m + a
			cell := mem[i]
			out[v], mem[i], addr[v] = s+cell*2654435761, cell^(s|1), a
			if a++; a == m {
				a = 0
			}
		}
	case 3:
		s0 *= p5
		for v := lo; v < hi; v++ {
			s := s0 + prev[v]*(3*p5) + prev[v-1]*(5*p4) + prev[v+1]*(7*p3) + prev[v+o0]*(9*p2) +
				prev[v+o1]*(11*p1) + prev[v+o2]*13
			i := v*m + a
			cell := mem[i]
			out[v], mem[i], addr[v] = s+cell*2654435761, cell^(s|1), a
			if a++; a == m {
				a = 0
			}
		}
	default:
		s0 *= p6
		sq := side * side
		for v := lo; v < hi; v++ {
			s := s0 + prev[v]*(3*p6) + prev[v-1]*(5*p5) + prev[v+1]*(7*p4) + prev[v-side]*(9*p3) +
				prev[v+side]*(11*p2) + prev[v-sq]*(13*p1) + prev[v+sq]*15
			i := v*m + a
			cell := mem[i]
			out[v], mem[i], addr[v] = s+cell*2654435761, cell^(s|1), a
			if a++; a == m {
				a = 0
			}
		}
	}
	return next
}

// AsNetwork adapts a guest to the network.Program interface. The adapter
// exists because Go cannot overload Step; guests expose Step (dag) and
// Step2 (network) and this wrapper renames the latter. Side carries the
// grid geometry so node indices map to the same (x, y) coordinates the dag
// view uses: Side = 0 (or 1) means a linear array (x = node); otherwise
// x = node mod Side, y = node div Side.
type AsNetwork struct {
	G interface {
		InitAt(x, y int, mem []hram.Word) hram.Word
		Address(node, step, memSize int) int
		Step2(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word)
	}
	Side int
	// CubeSide marks a d = 3 grid: node indices map to (x, y, z) with
	// z folded into the second hash coordinate the same way the dag
	// view's Input folds it, so both views share initial conditions.
	CubeSide int
}

// Init implements network.Program.
func (a AsNetwork) Init(node int, mem []hram.Word) hram.Word {
	if s := a.CubeSide; s > 1 {
		x, y, z := node%s, (node/s)%s, node/(s*s)
		return a.G.InitAt(x, y+131071*z, mem)
	}
	if a.Side > 1 {
		return a.G.InitAt(node%a.Side, node/a.Side, mem)
	}
	return a.G.InitAt(node, 0, mem)
}

// Address implements network.Program.
func (a AsNetwork) Address(node, step, memSize int) int {
	return a.G.Address(node, step, memSize)
}

// Step implements network.Program.
func (a AsNetwork) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	return a.G.Step2(node, step, cell, prev)
}

// StepRow implements network.RowProgram by forwarding to the wrapped
// guest's row kernel; a guest without one declines, and the stepper
// runs its per-vertex path.
func (a AsNetwork) StepRow(r *network.Row) bool {
	if k, ok := a.G.(network.RowProgram); ok {
		return k.StepRow(r)
	}
	return false
}

// AddrClass forwards to the wrapped guest when it classifies its
// addresses; Address passes node through verbatim, so the class does too.
func (a AsNetwork) AddrClass(node, step, memSize int) (uint64, bool) {
	if ac, ok := a.G.(interface {
		AddrClass(node, step, memSize int) (uint64, bool)
	}); ok {
		return ac.AddrClass(node, step, memSize)
	}
	return 0, false
}

// RestrictMem wraps a network program so it addresses only the first
// Words cells of each node's memory, declaring that via MemWords — the
// paper's concluding m' < m scenario ("if an algorithm for n processors
// actually requires m' memory cells per processor, with m' < m, more
// locality will result").
type RestrictMem struct {
	P interface {
		InitAt(x, y int, mem []hram.Word) hram.Word
		Address(node, step, memSize int) int
		Step2(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word)
	}
	// Words is m', the number of live cells per node.
	Words int
	// Side carries the grid geometry like AsNetwork.Side.
	Side int
}

// Init implements network.Program.
func (r RestrictMem) Init(node int, mem []hram.Word) hram.Word {
	if r.Side > 1 {
		return r.P.InitAt(node%r.Side, node/r.Side, mem)
	}
	return r.P.InitAt(node, 0, mem)
}

// Address implements network.Program, confined to the live region.
func (r RestrictMem) Address(node, step, memSize int) int {
	w := r.Words
	if w > memSize {
		w = memSize
	}
	return r.P.Address(node, step, w)
}

// Step implements network.Program.
func (r RestrictMem) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	return r.P.Step2(node, step, cell, prev)
}

// AddrClass forwards to the wrapped program with the memory size clamped
// to the live region, mirroring Address.
func (r RestrictMem) AddrClass(node, step, memSize int) (uint64, bool) {
	ac, ok := r.P.(interface {
		AddrClass(node, step, memSize int) (uint64, bool)
	})
	if !ok {
		return 0, false
	}
	w := r.Words
	if w > memSize {
		w = memSize
	}
	return ac.AddrClass(node, step, w)
}

// MemWords implements the blocked simulation's MemUser interface.
func (r RestrictMem) MemWords(memSize int) int {
	if r.Words > memSize {
		return memSize
	}
	return r.Words
}

// ByName returns a named guest for CLI use. Known names: "rule90",
// "mixca", "diffusion".
func ByName(name string, seed uint64) (interface {
	Input(v lattice.Point) dag.Value
	Step(v lattice.Point, ops []dag.Value) dag.Value
}, error) {
	switch name {
	case "rule90":
		return Rule90{Seed: seed}, nil
	case "mixca":
		return MixCA{Seed: seed}, nil
	case "diffusion":
		return Diffusion{Seed: seed}, nil
	default:
		return nil, fmt.Errorf("guest: unknown workload %q", name)
	}
}
