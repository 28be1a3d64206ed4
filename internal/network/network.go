// Package network implements the parallel machines Md(n, p, m) of
// Definition 2 of Bilardi & Preparata (SPAA 1995): a d-dimensional
// near-neighbor interconnection of p (x/m)^(1/d)-H-RAMs, each with mn/p
// memory words, with near-neighbor geometric distance (n/p)^(1/d).
// M1(n, p, m) is the linear array; M2(n, p, m) the square mesh.
//
// The package provides the machine structure (per-node H-RAMs wired to a
// cost.Bank of virtual clocks plus distance-charged links) and the
// synchronous guest executor: running a network Program for T steps on the
// fully parallel machine Md(n, n, m), which defines the guest time Tn that
// every simulation's slowdown is measured against.
package network

import (
	"fmt"
	"math"

	"bsmp/internal/cost"
	"bsmp/internal/hram"
	"bsmp/internal/topology"
)

// Machine is an Md(n, p, m).
type Machine struct {
	// D is the mesh dimension (1, 2 or 3).
	D int
	// N is the machine volume: the guest-equivalent processor count.
	N int
	// P is the number of (CPU, memory-module) nodes; for D = 2 it must
	// be a perfect square, for D = 3 a perfect cube.
	P int
	// M is the memory density: cells per unit of volume. Each node holds
	// M*N/P words.
	M int

	// Bank holds one virtual clock per node.
	Bank *cost.Bank
	// Nodes holds one H-RAM per node, sharing the Bank's meters.
	Nodes []*hram.Machine

	// topo is the host interconnection geometry. Every geometric method
	// of the machine (Coord/Index/Distance/Neighbors/Spacing/Side)
	// delegates here, so engines that hold a Machine consume the
	// topology seam without knowing it.
	topo topology.Topology
	// spacing caches topo.Spacing() for the per-vertex Message charge in
	// the guest executors (one interface call per vertex adds up).
	spacing float64
}

// New constructs Md(n, p, m). Constraints: d in {1, 2, 3}; 1 <= p <= n;
// m >= 1; p divides n; for d = 2 (resp. 3), p and n must be perfect
// squares (resp. cubes).
func New(d, n, p, m int, opts ...hram.Option) *Machine {
	return NewOn(topology.NewMesh(d, n, p), n, m, opts...)
}

// NewOn constructs a machine over an explicit topology — the seam the
// fault-masked and future bus/partitioned interconnections plug into.
// The node count, dimension and spacing come from the topology; n is
// the machine volume (p | n required) and m the memory density.
func NewOn(topo topology.Topology, n, m int, opts ...hram.Option) *Machine {
	d, p := topo.Dim(), topo.Nodes()
	if p < 1 || n < p || n%p != 0 {
		panic(fmt.Sprintf("network: need 1 <= p <= n with p | n, got p=%d n=%d", p, n))
	}
	if m < 1 {
		panic(fmt.Sprintf("network: density m=%d < 1", m))
	}
	bank := cost.NewBank(p)
	nodes := make([]*hram.Machine, p)
	per := m * (n / p)
	f := hram.Standard(d, m)
	for i := range nodes {
		nodes[i] = hram.New(per, f, bank.Proc(i), opts...)
	}
	return &Machine{
		D: d, N: n, P: p, M: m,
		Bank: bank, Nodes: nodes,
		topo:    topo,
		spacing: topo.Spacing(),
	}
}

// Topo exposes the machine's interconnection geometry.
func (ma *Machine) Topo() topology.Topology { return ma.topo }

// NodeMemory reports the per-node memory size mn/p.
func (ma *Machine) NodeMemory() int { return ma.M * (ma.N / ma.P) }

// Spacing reports the geometric near-neighbor distance (n/p)^(1/d).
func (ma *Machine) Spacing() float64 { return ma.spacing }

// Side reports the mesh side: p for d = 1, sqrt(p) for d = 2 and
// cbrt(p) for d = 3.
func (ma *Machine) Side() int { return ma.topo.Side() }

// Coord maps node index i to grid coordinates: (i, 0) for d = 1,
// (i mod side, i div side) for d = 2. For d = 3 use Coord3.
func (ma *Machine) Coord(i int) (gx, gy int) { return ma.topo.Coord(i) }

// Coord3 maps node index i to full grid coordinates for any dimension.
func (ma *Machine) Coord3(i int) (gx, gy, gz int) { return ma.topo.Coord3(i) }

// Index maps grid coordinates to the node index; inverse of Coord.
func (ma *Machine) Index(gx, gy int) int { return ma.topo.Index(gx, gy) }

// Index3 maps full grid coordinates to the node index; inverse of Coord3.
func (ma *Machine) Index3(gx, gy, gz int) int { return ma.topo.Index3(gx, gy, gz) }

// Distance reports the geometric distance between nodes i and j
// (Manhattan grid distance times the node spacing, the routed wire length).
func (ma *Machine) Distance(i, j int) float64 { return ma.topo.Dist(i, j) }

// Neighbors appends the node indices adjacent to i (d = 1: left, right;
// d = 2: plus south, north; d = 3: plus down, up), clipped to the machine.
func (ma *Machine) Neighbors(i int, buf []int) []int { return ma.topo.Neighbors(i, buf) }

// Send transmits words from node i to node j, charging bounded-speed
// message time (distance latency plus unit-rate streaming) on the Bank.
func (ma *Machine) Send(i, j int, words int64) {
	ma.Bank.Send(i, j, ma.Distance(i, j), words)
}

// Elapsed reports the machine's completion time so far (the makespan
// across all node clocks).
func (ma *Machine) Elapsed() cost.Time { return ma.Bank.MaxNow() }

// Program is a synchronous network computation in the style of
// Definition 3: every node holds a private memory of NodeMemory() words
// and a broadcast value; at each step a node reads one addressed memory
// cell, combines it with the neighbors' previous broadcast values, then
// updates both the cell and its broadcast value.
type Program interface {
	// Init fills node's initial memory and returns its initial broadcast
	// value (the value of dag vertex (node, 0)).
	Init(node int, mem []hram.Word) hram.Word
	// Address selects the memory cell node reads and rewrites at step.
	// Must lie in [0, memSize).
	Address(node, step, memSize int) int
	// Step computes the node's new broadcast value and the new content
	// of the addressed cell, from the old cell value and the previous
	// broadcast values of [self, neighbors...] in Neighbors order.
	Step(node, step int, cell hram.Word, prev []hram.Word) (out, cellOut hram.Word)
}

// StepHook is polled by the guest stepper once per synchronous step,
// before the step, with the number of node-steps (vertices) it is about
// to execute. Returning a non-nil error stops the run with that error.
// Hooks run between steps and never touch the cost meters, so a run
// whose hook always returns nil is bit-identical to an unhooked one.
type StepHook func(vertices int) error

// Row is the nodes Lo..Hi-1 of one synchronous step, handed to a
// RowProgram: step T of a guest whose nodes hold M memory words each.
// Prev holds the broadcast values of step T-1 and Out receives those of
// step T; Mem is every node's memory, node v's M words at [v·M, (v+1)·M);
// Addr receives the cell each node addressed. Node v's neighbors, in
// operand order (-x, +x, -y, +y, -z, +z, clipped), are
// Adj[Off[v]:Off[v+1]], and len(Off) is len(Out)+1. A whole step is the
// range [0, len(Out)).
//
// D and Side give the lists' shape. Side > 0 means they are exactly the
// clipped D-mesh stencil of that side over len(Out) = Side^D nodes:
// node v, at x = v mod Side on the x-line of nodes [v−x, v−x+Side), has
// v−1 if x > 0, then v+1 if x < Side−1, then v∓Side when its y is not
// 0 (resp. Side−1), then v∓Side² likewise for its z. A kernel may then
// read any node's neighbors at those fixed offsets, ±1, ±Side, ±Side²
// in that order, each one present exactly when the node's coordinates
// say so, instead of through Adj.
// Side is 0 for any other lists, such as a fault-masked mesh with dead
// nodes; Adj is then the only source of neighbors.
type Row struct {
	T, M           int
	Lo, Hi         int
	Prev, Out, Mem []hram.Word
	Addr           []int
	Off, Adj       []int32
	D, Side        int
}

// RowProgram is implemented by a Program that can step a range of a
// step's nodes in one call, over the guest's flat memory and neighbor
// offsets. StepRow steps exactly the nodes in [Lo, Hi) and must leave
// their Out, Addr and memory words exactly as Guest's per-vertex loop
// over the Program's own Address and Step would: node v addresses cell
// Address(v, T, M), and its Step operands are Prev[v] followed by Prev[u]
// for each u in Adj order (the stencil order, when Side > 0). It writes
// nothing else, so calls over
// disjoint ranges of one step may run at once. An out-of-range address
// panics, as it does in Step. StepRow returns false, having written
// nothing, to leave the step to the per-vertex loop; whether it accepts
// or declines a step must not depend on the range.
type RowProgram interface {
	StepRow(r *Row) bool
}

// Guest is a synchronous guest computation held between steps: the
// broadcast values of the last step and of the one before it, every
// node's m-word memory in one n·m backing array, the cell each node
// addressed at the last step, and the guest topology's static neighbor
// lists stored as offsets into one flat array. Its Step is the one loop
// that applies Definition 3's step rule; the pure replay, the accounted
// run that measures Tn and the naive engine drive it and add only their
// own charges.
type Guest struct {
	prog      Program
	row       RowProgram // prog's row path, nil when it has none
	m         int
	off, adj  []int32
	d, side   int // Row.D and Row.Side: side is 0 off the mesh stencil
	out, prev []hram.Word
	mem       []hram.Word
	addr      []int
	ops       []hram.Word
	steps     int
	// args is StepRow's argument, kept in the guest so a step
	// allocates nothing.
	args Row
	// rowed reports that the last step went through the row path: only
	// then does a Run ask for a helper.
	rowed bool
	// lend, help and helped are the helper handshake (helper.go).
	lend   Helpers
	help   helpSlot
	helped int
}

// NewGuest loads prog on the nodes of topo with m memory words each. The
// initial load (prog.Init, the values of the dag vertices (v, 0)) is
// free: inputs are assumed in place, as in the paper's model. Node v's
// neighbors land at adj[off[v]:off[v+1]], enumerated once through one
// reused buffer into an array sized to the 2d·n bound; when they are
// the clipped mesh stencil of topo.Side(), row kernels are told so.
func NewGuest(topo topology.Topology, m int, prog Program) *Guest {
	n := topo.Nodes()
	bound := 2 * topo.Dim() * n
	if bound > math.MaxInt32 {
		panic(fmt.Sprintf("network: %d neighbor slots overflow the int32 offsets", bound))
	}
	g := &Guest{
		prog: prog,
		m:    m,
		off:  make([]int32, n+1),
		adj:  make([]int32, 0, bound),
		out:  make([]hram.Word, n),
		prev: make([]hram.Word, n),
		mem:  make([]hram.Word, n*m),
		addr: make([]int, n),
	}
	g.row, _ = prog.(RowProgram)
	var buf []int
	deg := 0
	for v := 0; v < n; v++ {
		buf = topo.Neighbors(v, buf[:0])
		for _, u := range buf {
			g.adj = append(g.adj, int32(u))
		}
		g.off[v+1] = int32(len(g.adj))
		deg = max(deg, len(buf))
	}
	g.ops = make([]hram.Word, 1+deg)
	if g.d, g.side = topo.Dim(), topo.Side(); !meshStencil(g.d, g.side, g.off, g.adj) {
		g.side = 0
	}
	for v := range g.out {
		g.out[v] = prog.Init(v, g.mem[v*m:(v+1)*m:(v+1)*m])
	}
	return g
}

// meshStencil reports whether node v's neighbors adj[off[v]:off[v+1]]
// are, for every v, the clipped d-mesh stencil of the given side in
// operand order (Row.Side): one walk over the nodes with their
// coordinates kept by counting, O(n·d).
func meshStencil(d, side int, off, adj []int32) bool {
	n := len(off) - 1
	if d < 1 || d > 3 || side < 1 {
		return false
	}
	stride := [3]int{1, side, side * side}
	if stride[d-1]*side != n {
		return false
	}
	var c [3]int // v's coordinates
	for v := 0; v < n; v++ {
		nb, k := adj[off[v]:off[v+1]], 0
		for i, s := range stride[:d] {
			if c[i] > 0 {
				if k == len(nb) || int(nb[k]) != v-s {
					return false
				}
				k++
			}
			if c[i] < side-1 {
				if k == len(nb) || int(nb[k]) != v+s {
					return false
				}
				k++
			}
		}
		if k != len(nb) {
			return false
		}
		for i := range c[:d] {
			if c[i]++; c[i] < side {
				break
			}
			c[i] = 0
		}
	}
	return true
}

// Step executes one synchronous step: every node v reads its addressed
// cell and combines it with the previous broadcast values of v and its
// neighbors, in neighbor order, then rewrites the cell and its broadcast
// value. A RowProgram steps the whole row in one call, or, while a
// helper is attached, the lower half here and the upper half on the
// helper; the per-vertex loop runs when the program has no row path or
// declines the step, and is never split. Step is kept out of line so the
// drivers' hook and charge code never shares a register allocation with
// the vertex loop.
//
//go:noinline
func (g *Guest) Step() {
	t := g.steps + 1
	g.out, g.prev = g.prev, g.out
	g.rowed = g.stepRow(t)
	if !g.rowed {
		g.stepVertices(t)
	}
	g.steps = t
}

// stepRow offers step t to the program's row path and reports whether
// the program took it.
func (g *Guest) stepRow(t int) bool {
	if g.row == nil {
		return false
	}
	g.args = Row{T: t, M: g.m, Lo: 0, Hi: len(g.out), Prev: g.prev, Out: g.out, Mem: g.mem, Addr: g.addr, Off: g.off, Adj: g.adj, D: g.d, Side: g.side}
	if g.help.state.Load() == helpAttached {
		return g.stepSplit()
	}
	return g.row.StepRow(&g.args)
}

// stepVertices is the per-vertex path of step t: one Address and one
// Step call per node. The operands go into a buffer sized once to 1 +
// the topology's largest degree and filled by index: appending to it
// kept a grow path in the loop and made the served replay measurably
// slower.
func (g *Guest) stepVertices(t int) {
	n := len(g.out)
	prog, m, mem, ops, adj := g.prog, g.m, g.mem, g.ops, g.adj
	off, out, prev, addr := g.off[:n+1], g.out[:n], g.prev[:n], g.addr[:n]
	for v := 0; v < n; v++ {
		a := prog.Address(v, t, m)
		if uint(a) >= uint(m) {
			panic(fmt.Sprintf("network: node %d addressed cell %d of %d at step %d", v, a, m, t))
		}
		nb := adj[off[v]:off[v+1]]
		ops[0] = prev[v]
		for i, u := range nb {
			ops[i+1] = prev[u]
		}
		c := v*m + a
		out[v], mem[c] = prog.Step(v, t, mem[c], ops[:len(nb)+1])
		addr[v] = a
	}
}

// Run advances the guest to step steps, polling hook (when non-nil)
// before every step with the node count. A guest of at least SplitMin
// nodes with Helpers (SetHelpers) asks them for a helper between steps
// while it has none; Run returns only after its helper has let go.
func (g *Guest) Run(steps int, hook StepHook) error {
	if g.lend != nil && g.steps < steps && len(g.out) >= SplitMin {
		g.help.open()
		defer g.help.close()
	}
	for g.steps < steps {
		if hook != nil {
			if err := hook(len(g.out)); err != nil {
				return err
			}
		}
		if g.rowed && g.help.state.Load() == helpOpen {
			g.ask()
		}
		g.Step()
	}
	return nil
}

// Steps reports how many steps the guest has executed.
func (g *Guest) Steps() int { return g.steps }

// Helped reports how many steps a helper took the upper half of.
func (g *Guest) Helped() int { return g.helped }

// Outputs returns the broadcast values of the last step (the initial
// values before the first). The slice is the guest's own: a later Step
// overwrites it.
func (g *Guest) Outputs() []hram.Word { return g.out }

// Memory returns every node's memory, node v's m words at [v·m, (v+1)·m).
// The slice is the guest's own.
func (g *Guest) Memory() []hram.Word { return g.mem }

// Neighbors returns node v's neighbors, in operand order. The slice is
// the guest's own.
func (g *Guest) Neighbors(v int) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// Addr reports the cell node v addressed at the last step.
func (g *Guest) Addr(v int) int { return g.addr[v] }

// Cell reports the content node v wrote to its addressed cell at the
// last step.
func (g *Guest) Cell(v int) hram.Word { return g.mem[v*g.m+g.addr[v]] }

// RunGuest executes prog for steps synchronous steps on the fully parallel
// machine (P == N required), with full cost accounting: after each step
// every node, in node order, charges the addressed read, one unit of
// compute, the write-back and the neighbor exchange at distance
// Spacing(); a barrier closes the step. hook, when non-nil, is polled
// before every step (see StepHook); simulate uses it for cooperative
// cancellation and progress metering. RunGuest returns the final
// broadcast values and the elapsed virtual time; the machine's H-RAMs
// end up holding the guest's final memories.
//
// This is the guest computation of the paper's theorems: its elapsed time
// is the Tn in every slowdown ratio Tp/Tn.
func RunGuest(ma *Machine, prog Program, steps int, hook StepHook) ([]hram.Word, cost.Time, error) {
	if ma.P != ma.N {
		panic(fmt.Sprintf("network: RunGuest needs P == N, got P=%d N=%d", ma.P, ma.N))
	}
	start := ma.Elapsed()
	m := ma.NodeMemory()
	g := NewGuest(ma.topo, m, prog)
	for v, node := range ma.Nodes {
		for a, w := range g.mem[v*m : (v+1)*m] {
			node.Poke(a, w)
		}
	}
	for g.steps < steps {
		if err := g.Run(g.steps+1, hook); err != nil {
			return nil, 0, err
		}
		for v, node := range ma.Nodes {
			a := g.addr[v]
			node.Read(a)
			node.Op()
			node.Write(a, g.Cell(v))
			// Neighbor exchange: receiving 2d values over distance
			// Spacing() in parallel costs one link traversal.
			ma.Bank.Proc(v).Charge(cost.Message, ma.spacing)
		}
		ma.Bank.Barrier()
	}
	return g.out, ma.Elapsed() - start, nil
}

// RunGuestPure executes prog functionally with no cost accounting — the
// ground truth against which hosted simulations are verified. It returns
// the final broadcast values and every node's final memory, node v's m
// words at [v·m, (v+1)·m) (Guest.Memory). Adjacency comes from a bare
// topology mesh: no machine (and no O(n·m) H-RAM memory) is ever built
// for the functional replay.
func RunGuestPure(d, n, m, steps int, prog Program) ([]hram.Word, []hram.Word) {
	g := NewGuest(topology.NewMesh(d, n, n), m, prog)
	g.Run(steps, nil)
	return g.out, g.mem
}

// Digest is the one digest of a guest state: the word-wise 64-bit FNV-1a
// hash of the broadcast values outs followed by the flat memory mem, in
// 16 hex digits. It is a served run's outputs_digest. A nil outs, a run
// that carries no guest state, digests to "".
func Digest(outs, mem []hram.Word) string {
	if outs == nil {
		return ""
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range outs {
		h = (h ^ w) * prime
	}
	for _, w := range mem {
		h = (h ^ w) * prime
	}
	return fmt.Sprintf("%016x", h)
}
