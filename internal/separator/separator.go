// Package separator implements the topological-separator execution
// technique of Section 3 of Bilardi & Preparata (SPAA 1995): the recursive
// procedure of Proposition 2 that executes a convex dag domain U on an
// f(x)-H-RAM by
//
//  1. copying the preboundary Γin(Ui) of each piece of U's topological
//     partition into low memory,
//  2. executing the piece recursively in working space [0, S(Ui)), and
//  3. copying the piece's still-needed values ("live-outs") into a staging
//     area below S(U),
//
// with real address management on a real hram.Machine, so that the measured
// virtual time is obtained from first principles rather than from the
// closed-form bound. Proposition 3's conclusions — space σ(k) = O(k^γ) and
// time τ(k) = O(k log k) for (c·x^γ, δ)-separators on (a·x^α)-H-RAMs with
// α <= (1-γ)/γ — are then checked empirically against these measurements
// by the experiment suite.
//
// The executor is generic over lattice.Domain (diamonds for d = 1,
// octahedra/tetrahedra for d = 2) and dag.Graph (linear array, mesh), which
// is exactly the generality the paper's technique claims.
package separator

import (
	"bsmp/internal/cost"
	"fmt"

	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
)

// DefaultLeafSize is the domain size below which execution is direct
// (vertex by vertex in topological order) rather than recursive. Any small
// constant preserves the asymptotics; 8 keeps recursion overhead low.
const DefaultLeafSize = 8

// Executor runs one dag program on one H-RAM via the separator technique.
type Executor struct {
	// G is the computation dag; Prog its value semantics.
	G    dag.Graph
	Prog dag.Program
	// LeafSize bounds direct execution; DefaultLeafSize if zero.
	LeafSize int
	// Check, when non-nil, is polled at every node of the planning
	// recursion and every phase boundary (once per partition child), with
	// vertices = 0, and after every executed leaf (with vertices = the
	// leaf's vertex count). Returning a non-nil error aborts the planning
	// or the execution with that error. The hook is invoked
	// between charged operations and must not touch the machine, so it
	// cannot perturb measured virtual times. simulate.UniDCContext uses
	// it for cooperative cancellation and progress metering.
	Check func(vertices int) error

	m *hram.Machine
	// loc is the dense address table: one int32 slot per dag vertex
	// (lattice.Indexer over G.Bounds()), -1 when the vertex holds no live
	// value. It replaces the seed's map[lattice.Point]int and is allocated
	// once per Execute, shared by every recursion level.
	loc *lattice.AddrTable
	// ovStack arenas the per-depth preboundary-override buffers, and used
	// the live-outs each depth's finished children handed it to consume
	// (deleted when the depth's domain finishes), so the recursion
	// reuses one backing array per depth instead of allocating per
	// partition node.
	ovStack [][]savedLoc
	used    [][]lattice.Point
	// leafPts is the running leaf's vertices, for its cleanup.
	leafPts []lattice.Point

	// bd and surf are the boundary enumeration's scratch and the
	// planning recursion's result buffer; geo holds one Surface per
	// recursion depth, so a parent's child geometry survives the child's
	// own recursion.
	bd   dag.Boundary
	surf dag.Surface
	geo  []dag.Surface

	// maxAddrTouched tracks the peak address, for space-bound checks.
	maxAddrTouched int
	// plans caches each domain's plan; planned marks a Plan that the
	// next Execute reuses.
	plans   map[lattice.Domain]plan
	planned bool
	// levels accumulates per-recursion-depth transfer statistics.
	levels []LevelStat
}

// savedLoc remembers a preboundary vertex's parent-level address while the
// child executes with the vertex rebound to its copied-down slot.
type savedLoc struct {
	p    lattice.Point
	addr int
}

// LevelStat records the relocation work done at one recursion depth of
// Proposition 2's procedure. Proposition 3's τ(k) = O(k·log k) bound rests
// on every depth moving O(k) worth of (words × access cost); the
// experiment suite checks that measured per-level Transfer time is flat
// across depths.
type LevelStat struct {
	// Domains is the number of partition nodes processed at this depth.
	Domains int
	// WordsMoved counts preboundary copy-downs plus live-out stagings.
	WordsMoved int
	// TransferTime is the virtual time those moves cost.
	TransferTime float64
}

// SpaceNeeded computes the space allowance S(U) of Proposition 2 for the
// given domain: the recursive maximum of children allowances plus staging
// for live-out values plus the incoming preboundary slot. Leaf domains use
// one cell per vertex plus the preboundary slot.
func SpaceNeeded(g dag.Graph, dom lattice.Domain, leafSize int) int {
	e := Executor{G: g, LeafSize: leafSize}
	s, _ := e.Plan(dom)
	return s
}

// plan is the planning recursion's record of one domain: its space
// allowance and the live-out count its parent stages.
type plan struct{ space, live int }

// Plan computes the space allowance S(root) that Execute needs, polling
// Check (with vertices = 0) at every node of the planning recursion, so
// a caller that has given up stops before the domain tree is walked. The
// allowance sizes the machine; the next Execute on the same graph reuses
// this plan instead of planning again.
func (e *Executor) Plan(root lattice.Domain) (int, error) {
	if e.LeafSize <= 0 {
		e.LeafSize = DefaultLeafSize
	}
	e.plans = make(map[lattice.Domain]plan, 1024)
	p, err := e.plan(root)
	e.planned = err == nil
	return p.space, err
}

// plan memoizes each domain's allowance. Domain values (Diamond, Box4,
// Box6) are comparable structs, so one cache serves the whole run and
// each domain's boundary is enumerated once.
func (e *Executor) plan(dom lattice.Domain) (plan, error) {
	if p, ok := e.plans[dom]; ok {
		return p, nil
	}
	if e.Check != nil {
		if err := e.Check(0); err != nil {
			return plan{}, err
		}
	}
	e.bd.Compute(e.G, dom, dag.ByPosition, &e.surf)
	gin := len(e.surf.Pre)
	p := plan{live: len(e.surf.Live)}
	if kids := e.children(dom); kids == nil {
		p.space = dom.Size() + gin
	} else {
		smax, lout := 0, 0
		for _, k := range kids {
			kp, err := e.plan(k)
			if err != nil {
				return plan{}, err
			}
			smax = max(smax, kp.space)
			lout += kp.live
		}
		p.space = smax + lout + gin
	}
	e.plans[dom] = p
	return p, nil
}

// children returns dom's partition, or nil when dom is executed
// directly: it holds at most LeafSize vertices or cannot be split.
func (e *Executor) children(dom lattice.Domain) []lattice.Domain {
	if dom.Size() <= e.LeafSize {
		return nil
	}
	return dom.Children()
}

// Result reports the outcome of a separator execution.
type Result struct {
	// Outputs are the final-layer values indexed by network node
	// (x for the line; y*side+x for the mesh; (z*side+y)*side+x for the
	// cube).
	Outputs []dag.Value
	// Space is the memory allowance S of the root call (machine size).
	Space int
	// MaxAddr is the highest address actually touched.
	MaxAddr int
	// Vertices is the number of dag vertices executed.
	Vertices int
	// Levels is the per-recursion-depth relocation profile.
	Levels []LevelStat
}

// Execute runs the full computation dag of g on a fresh f-H-RAM charging
// into machine m's meter, and returns the final-layer outputs. The domain
// executed is g's full domain (every vertex including the t = 0 inputs,
// which are materialized by Prog.Input at unit cost when reached — the
// paper's input vertices). It executes under the plan of a preceding
// Plan call, or plans first when there is none.
func (e *Executor) Execute(m *hram.Machine, root lattice.Domain) (Result, error) {
	if !e.planned {
		if _, err := e.Plan(root); err != nil {
			return Result{}, err
		}
	}
	e.planned = false
	p, err := e.plan(root)
	if err != nil {
		return Result{}, err
	}
	space := p.space
	e.m = m
	ix := lattice.NewIndexer(e.G.Bounds())
	if e.loc == nil {
		e.loc = lattice.NewAddrTable(ix)
	} else {
		// Executor reuse: retarget the arena, keeping its storage.
		e.loc.Reset(ix)
	}
	e.maxAddrTouched = 0
	e.levels = nil

	if m.Size() < space {
		return Result{}, fmt.Errorf("separator: machine size %d < required space %d", m.Size(), space)
	}
	var top dag.Surface
	e.bd.Compute(e.G, root, dag.ByPosition, &top)
	if err := e.exec(root, top, space, 0); err != nil {
		return Result{}, err
	}

	// Collect outputs from the final layer, which the root's live-out
	// set holds whole.
	last := e.G.Steps() - 1
	out := make([]dag.Value, e.G.Nodes())
	for _, p := range top.Live {
		if p.T != last {
			continue
		}
		addr, ok := e.loc.Get(p)
		if !ok {
			return Result{}, fmt.Errorf("separator: missing output value in final layer")
		}
		out[e.nodeIndex(p)] = m.Peek(addr)
	}
	return Result{
		Outputs:  out,
		Space:    space,
		MaxAddr:  e.maxAddrTouched,
		Vertices: root.Size(),
		Levels:   e.levels,
	}, nil
}

// level returns the stat accumulator for depth, growing the slice.
func (e *Executor) level(depth int) *LevelStat {
	for len(e.levels) <= depth {
		e.levels = append(e.levels, LevelStat{})
	}
	return &e.levels[depth]
}

// nodeIndex flattens a point's spatial coordinates to a node index.
func (e *Executor) nodeIndex(p lattice.Point) int {
	switch g := e.G.(type) {
	case dag.MeshGraph:
		return p.Y*g.Side + p.X
	case dag.CubeGraph:
		return (p.Z*g.Side+p.Y)*g.Side + p.X
	default:
		return p.X
	}
}

// touch records the highest touched address.
func (e *Executor) touch(addr int) int {
	if addr > e.maxAddrTouched {
		e.maxAddrTouched = addr
	}
	return addr
}

// exec implements Proposition 2; geo is dom's geometry, enumerated by
// the caller. Contract: on entry, every vertex of Γin(dom) has a valid
// address in e.loc; on exit, every vertex of dom's live-out set has a
// valid address in e.loc, and loc entries for dead vertices of dom have
// been removed: a leaf deletes its vertices that are not live-outs, and
// a domain, when it finishes, deletes its children's live-outs that it
// consumed, so stale reads fail loudly.
func (e *Executor) exec(dom lattice.Domain, geo dag.Surface, space, depth int) error {
	kids := e.children(dom)
	if kids == nil {
		return e.execLeaf(dom, &geo)
	}
	e.level(depth).Domains++

	// Staging area below the incoming preboundary slot.
	stagePtr := space - len(geo.Pre)

	for len(e.ovStack) <= depth {
		e.ovStack = append(e.ovStack, nil)
		e.geo = append(e.geo, dag.Surface{})
		e.used = append(e.used, nil)
	}
	e.used[depth] = e.used[depth][:0]
	consumed := func(p lattice.Point) { e.used[depth] = append(e.used[depth], p) }
	for _, kid := range kids {
		if e.Check != nil {
			if err := e.Check(0); err != nil {
				return err
			}
		}
		kp, err := e.plan(kid)
		if err != nil {
			return err
		}
		skid := kp.space
		// The child's geometry lives in this depth's Surface: deeper
		// recursion uses its own, so ginKid and live stay valid across
		// the exec(kid) call below.
		kg := e.geo[depth]
		e.bd.Compute(e.G, kid, dag.ByPosition, &kg)
		e.geo[depth] = kg
		ginKid, live := kg.Pre, kg.Live

		// Step 1 (Prop 2): copy the child's preboundary into
		// [skid - |Γin(kid)|, skid), overriding loc only within the
		// child's execution. The override buffer comes from this depth's
		// arena slot: deeper recursion uses its own slots, so the buffer
		// stays valid across the exec(kid) call below.
		overrides := e.ovStack[depth][:0]
		dstBase := skid - len(ginKid)
		before := e.m.Meter().Total(cost.Transfer)
		for i, q := range ginKid {
			src, ok := e.loc.Get(q)
			if !ok {
				return fmt.Errorf("separator: preboundary value %v of %v unavailable", q, kid)
			}
			dst := dstBase + i
			e.m.MoveWord(e.touch(dst), src)
			overrides = append(overrides, savedLoc{q, src})
			e.loc.Set(q, dst)
		}
		// Re-fetch the accumulator: deeper recursion may have grown the
		// levels slice, invalidating any held pointer.
		st := e.level(depth)
		st.WordsMoved += len(ginKid)
		st.TransferTime += float64(e.m.Meter().Total(cost.Transfer) - before)

		// Step 2: execute the child in [0, skid).
		if err := e.exec(kid, kg, skid, depth+1); err != nil {
			return err
		}

		// Step 3: persist the child's live-outs into staging (below
		// the parent's preboundary slot, above every child workspace).
		before = e.m.Meter().Total(cost.Transfer)
		for _, v := range live {
			src, ok := e.loc.Get(v)
			if !ok {
				return fmt.Errorf("separator: live-out value %v of %v unavailable", v, kid)
			}
			stagePtr--
			if stagePtr < skid {
				return fmt.Errorf("separator: staging area underflow in %v", dom)
			}
			e.m.MoveWord(e.touch(stagePtr), src)
			e.loc.Set(v, stagePtr)
		}
		// The live-outs dom does not export are consumed inside it.
		geo.EachDead(live, consumed)

		st = e.level(depth)
		st.WordsMoved += len(live)
		st.TransferTime += float64(e.m.Meter().Total(cost.Transfer) - before)

		// Restore the parent-level addresses of the child's preboundary.
		for _, s := range overrides {
			e.loc.Set(s.p, s.addr)
		}
		e.ovStack[depth] = overrides
	}
	for _, p := range e.used[depth] {
		e.loc.Delete(p)
	}
	return nil
}

// execLeaf executes every vertex of dom directly, in ascending (T, X, Y)
// order, allocating result cells from address 0 upward, then keeps only
// its live-outs in loc.
func (e *Executor) execLeaf(dom lattice.Domain, geo *dag.Surface) error {
	next := 0
	var buf []lattice.Point
	ops := make([]dag.Value, 0, 5)
	var fail error
	e.leafPts = e.leafPts[:0]
	dom.Points(func(p lattice.Point) bool {
		buf = e.G.Preds(p, buf[:0])
		ops = ops[:0]
		for _, q := range buf {
			addr, ok := e.loc.Get(q)
			if !ok {
				fail = fmt.Errorf("separator: operand %v of %v unavailable", q, p)
				return false
			}
			ops = append(ops, e.m.Read(addr))
		}
		var v dag.Value
		if len(buf) == 0 {
			v = e.Prog.Input(p)
		} else {
			v = e.Prog.Step(p, ops)
		}
		e.m.Op()
		addr := next
		next++
		e.m.Write(e.touch(addr), v)
		e.loc.Set(p, addr)
		e.leafPts = append(e.leafPts, p)
		return true
	})
	if fail == nil && e.Check != nil {
		fail = e.Check(dom.Size())
	}
	if fail != nil {
		return fail
	}
	geo.EachDead(e.leafPts, e.loc.Delete)
	return nil
}
