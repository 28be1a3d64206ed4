package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// This file is the engine behind BlockedContext: one Proposition 2
// recursion over the two-kind value flow (broadcast words and whole
// column images), generic over the mesh dimension.
// The seed carried three near-identical copies keyed by per-dimension structs
// (bkey/b2key/b3key) hashed into maps on the innermost loops; here both value
// kinds are addressed by dense lattice.AddrTable arrays indexed over the dag's
// bounding box, and all scratch (live-sets, column indices, override stacks) is
// arena-allocated once per run and reused across every recursion level.
//
// Address-table layout. A broadcast value lives at its dag vertex
// (x, t) (d = 2: (x, y, t); d = 3: (x, y, z, t)). A column image is keyed
// by (node position, entry time): node v's m'-word live memory before
// step t; t = steps+1 is the final image. Both key spaces embed in the
// dag's bounding box extended one time layer past the final step, so one
// Indexer serves both tables.
//
// Scratch lifetime rules — the invariants that make single arenas safe:
//
//   - live is populated and fully drained between a child's return and
//     the next child's descent; recursion below never observes it held.
//   - colIdx is populated and drained entirely within columns() and
//     within execLeaf(), which never overlaps a deeper use.
//   - ovStack hands each recursion depth its own override buffer, so a
//     parent's buffer stays intact while its children recurse.
//
// The change is host-side only: the sequence of machine operations
// (BlockCopy, MoveWord, Read, Write, Op) is identical to the seed's, so
// every measured virtual time is bit-identical (enforced by the golden
// assertions in golden_test.go).

// colSpan is one node column's contiguous vertex-time interval within a
// domain: spatial position pos (T = 0) present for vertex times [ta, tb].
type colSpan struct {
	pos    lattice.Point
	ta, tb int
}

// blockedGeom is the guest mesh as the blocked executor reads it: node
// index and position come from the mesh topology, and the operand
// stencil steps along its d axes within its side. d and side are copied
// out of the mesh so the leaf loop's stencil makes no interface call.
type blockedGeom struct {
	mesh topology.Topology
	d    int // mesh dimension
	side int // nodes per axis: n at d = 1
}

// newBlockedGeom reads the geometry of the n-node guest mesh of
// dimension d.
func newBlockedGeom(d, n int) blockedGeom {
	mesh := topology.NewMesh(d, n, n)
	return blockedGeom{mesh: mesh, d: mesh.Dim(), side: mesh.Side()}
}

// nodeIndex flattens a spatial position to the network node id.
func (g *blockedGeom) nodeIndex(p lattice.Point) int { return g.mesh.Index3(p.X, p.Y, p.Z) }

// nodePos inverts nodeIndex (T = 0).
func (g *blockedGeom) nodePos(node int) lattice.Point {
	x, y, z := g.mesh.Coord3(node)
	return lattice.Point{X: x, Y: y, Z: z}
}

// operands appends p's operand stencil at time p.T-1 in the order the
// guest stepper passes operands (network.Guest): self first, then the
// mesh neighbors in topology.Neighbors order (-x, +x, -y, +y, -z, +z),
// clipped at the mesh boundary. TestBlockedOperandsFollowNeighbors pins
// the agreement.
func (g *blockedGeom) operands(p lattice.Point, buf []lattice.Point) []lattice.Point {
	p.T--
	buf = append(buf, p)
	c := [3]int{p.X, p.Y, p.Z}
	for a := 0; a < g.d; a++ {
		if c[a] > 0 {
			buf = append(buf, shift(p, a, -1))
		}
		if c[a] < g.side-1 {
			buf = append(buf, shift(p, a, 1))
		}
	}
	return buf
}

// shift moves p by delta along spatial axis a (0 = x, 1 = y, 2 = z).
func shift(p lattice.Point, a, delta int) lattice.Point {
	switch a {
	case 0:
		p.X += delta
	case 1:
		p.Y += delta
	default:
		p.Z += delta
	}
	return p
}

// blockedExec runs the blocked simulation of one guest on one H-RAM.
type blockedExec struct {
	g        dag.Graph
	prog     network.Program
	m        int // guest memory density
	iw       int // image words actually relocated: m' <= m (MemUser)
	steps    int
	leafSpan int
	mach     *hram.Machine
	geom     blockedGeom
	ec       *execCtx // cancellation + progress; host-side only

	bcast   *lattice.AddrTable // broadcast-word addresses per dag vertex
	mem     *lattice.AddrTable // column-image addresses per (node, entry time)
	live    *lattice.PointSet  // scratch live-out membership (drained after use)
	colIdx  *lattice.AddrTable // scratch position -> span index / image base
	ovStack [][]savedAddr      // per-depth override buffers
	space   map[lattice.Domain]int

	ptsBuf  []lattice.Point
	opsBuf  []hram.Word
	initMem []hram.Word

	// Subtree memoization state (enableMemo). recs is the stack of active
	// trace recorders: the machine meter's tap feeds the top entry, so a
	// recording subtree captures exactly its own charge interval while
	// nested recordings and replays link in as trace children. replayed
	// counts memo hits; when nonzero, machine memory holds garbage at
	// replayed addresses and collect recomputes outputs guest-side.
	memoOn   bool
	progFP   string
	recs     []*cost.Recorder
	replayed int
}

// enableMemo arms subtree memoization: congruent recursion subtrees are
// recorded once and analytically replayed (trace playback) at every later
// congruent site. Requires a guest whose address pattern is classifiable
// (addrClasser); otherwise the run proceeds unmemoized. The meter tap
// only observes charges — it never charges — so arming it cannot perturb
// virtual times.
func (b *blockedExec) enableMemo(meter *cost.Meter) {
	if _, ok := b.prog.(addrClasser); !ok {
		return
	}
	b.memoOn = true
	b.progFP = progFingerprint(b.prog)
	meter.SetTap(func(cat cost.Category, dt cost.Time) {
		if n := len(b.recs); n > 0 {
			b.recs[n-1].Record(cat, dt)
		}
	})
}

// subtreeKeyFor builds dom's congruence-class key in O(1): canonical
// translated shape, clip clamped near the domain, machine stride, hram
// pricing mode, recursion cutoff, and the guest's address class at the
// domain's reference vertex. ok = false disables memoization for dom.
func (b *blockedExec) subtreeKeyFor(dom lattice.Domain) (subtreeKey, bool) {
	shape, ok := canonicalDomain(dom)
	if !ok {
		return subtreeKey{}, false
	}
	ref, ok := refPoint(dom)
	if !ok {
		return subtreeKey{}, false
	}
	class, ok := progClass(b.prog, b.geom.nodeIndex(ref), ref.T, b.m)
	if !ok {
		return subtreeKey{}, false
	}
	// The mesh side enters the key because the address-class argument
	// needs node indices to shift uniformly under lattice translation,
	// which holds only within one stride; the d = 1 line has no stride
	// and keys side 0.
	side := 0
	if b.geom.d > 1 {
		side = b.geom.side
	}
	return subtreeKey{
		d: dom.Dim(), m: b.m, iw: b.iw, leafSpan: b.leafSpan,
		pipelined: b.mach.Pipelined(), side: side,
		shape: shape, class: class, prog: b.progFP,
	}, true
}

// savedAddr remembers a key's parent-level address while a child executes
// with the key rebound to its copied-down slot.
type savedAddr struct {
	p   lattice.Point
	add int
	mem bool
}

// memKey is the address-table key of node pos's image entering step t.
func memKey(pos lattice.Point, t int) lattice.Point {
	return lattice.Point{X: pos.X, Y: pos.Y, Z: pos.Z, T: t}
}

// newBlockedExec allocates the dense tables for graph g. The index box is
// g's bounds with one extra time layer, so the final images
// Mem(v, steps+1) are addressable.
func newBlockedExec(ctx context.Context, g dag.Graph, prog network.Program, m, iw, steps, leafSpan int, geom blockedGeom) *blockedExec {
	bounds := g.Bounds()
	bounds.T1++
	ix := lattice.NewIndexer(bounds)
	return &blockedExec{
		g: g, prog: prog, m: m, iw: iw, steps: steps, leafSpan: leafSpan, geom: geom,
		ec:      newExecCtx(ctx),
		bcast:   lattice.NewAddrTable(ix),
		mem:     lattice.NewAddrTable(ix),
		live:    lattice.NewPointSet(ix),
		colIdx:  lattice.NewAddrTable(lattice.NewIndexer(spatialClip(bounds))),
		space:   make(map[lattice.Domain]int, 1024),
		opsBuf:  make([]hram.Word, 0, 7),
		initMem: make([]hram.Word, m),
	}
}

// spatialClip is the T = 0 slice of a box: the index space of node
// positions.
func spatialClip(c lattice.Clip) lattice.Clip {
	c.T0, c.T1 = 0, 1
	return c
}

// columns returns the per-node time spans of dom using the colIdx
// scratch table for deduplication (drained before returning). The d = 1
// line sorts them by ascending x; higher dimensions keep first-seen
// (T, X, Y, Z) enumeration order. Column order fixes the memory layout
// of images in leaves and staging areas, so it is part of the
// virtual-time contract.
func (b *blockedExec) columns(dom lattice.Domain) []colSpan {
	var spans []colSpan
	dom.Points(func(p lattice.Point) bool {
		pos := lattice.Point{X: p.X, Y: p.Y, Z: p.Z}
		if i, ok := b.colIdx.Get(pos); ok {
			if p.T < spans[i].ta {
				spans[i].ta = p.T
			}
			if p.T > spans[i].tb {
				spans[i].tb = p.T
			}
			return true
		}
		b.colIdx.Set(pos, len(spans))
		spans = append(spans, colSpan{pos: pos, ta: p.T, tb: p.T})
		return true
	})
	for _, s := range spans {
		b.colIdx.Delete(s.pos)
	}
	if b.geom.d == 1 {
		for i := 1; i < len(spans); i++ {
			for j := i; j > 0 && spans[j].pos.X < spans[j-1].pos.X; j-- {
				spans[j], spans[j-1] = spans[j-1], spans[j]
			}
		}
	}
	return spans
}

// memInCount is the number of images dom consumes: columns whose first
// simulated vertex time is >= 1 (ta = 0 columns materialize their own
// image from prog.Init).
func memInCount(spans []colSpan) int {
	n := 0
	for _, s := range spans {
		if s.ta >= 1 {
			n++
		}
	}
	return n
}

// inSize is the word count of a domain's incoming data: one word per
// preboundary broadcast value plus m' words per consumed image.
func (b *blockedExec) inSize(dom lattice.Domain, spans []colSpan) int {
	return len(dag.Preboundary(b.g, dom)) + b.iw*memInCount(spans)
}

// isLeaf reports whether dom is executed naively in place.
func (b *blockedExec) isLeaf(dom lattice.Domain) bool {
	return dom.Span() <= b.leafSpan || dom.Children() == nil
}

// spaceNeeded mirrors separator.SpaceNeeded for the two-kind value flow,
// memoized per (comparable) domain value. The planning recursion visits
// the entire domain tree before a single vertex executes — at large
// (n, steps) that is seconds of work — so it polls cancellation at every
// node; a caller that has already given up never reaches execution.
func (b *blockedExec) spaceNeeded(dom lattice.Domain) (int, error) {
	if s, ok := b.space[dom]; ok {
		return s, nil
	}
	if err := b.ec.poll(); err != nil {
		return 0, err
	}
	spans := b.columns(dom)
	in := b.inSize(dom, spans)
	var out int
	if b.isLeaf(dom) {
		// Working space: every column image resident plus one word per
		// vertex for broadcast values.
		out = len(spans)*b.iw + dom.Size() + in
	} else {
		smax, stage := 0, 0
		for _, kid := range dom.Children() {
			s, err := b.spaceNeeded(kid)
			if err != nil {
				return 0, err
			}
			if s > smax {
				smax = s
			}
			stage += len(dag.LiveOut(b.g, kid)) + b.iw*len(b.columns(kid))
		}
		out = smax + stage + in
	}
	b.space[dom] = out
	return out, nil
}

// exec implements the Proposition 2 recursion for the blocked value flow.
// Contract: incoming keys (preboundary broadcasts and consumed images)
// have valid addresses on entry; on exit, live-out broadcasts and the
// produced images Mem(v, tb+1) have valid addresses.
func (b *blockedExec) exec(dom lattice.Domain, space, depth int) error {
	if b.isLeaf(dom) {
		return b.execLeaf(dom)
	}
	// The incoming slot occupies [space-inSize, space); staging grows
	// downward from its floor.
	stagePtr := space - b.inSize(dom, b.columns(dom))
	for len(b.ovStack) <= depth {
		b.ovStack = append(b.ovStack, nil)
	}

	for _, kid := range dom.Children() {
		if err := b.ec.checkpoint(); err != nil {
			return err
		}
		// A memo hit replays the child's recorded charge trace instead of
		// recursing; a classifiable miss records the recursion for future
		// congruent sites. Either way the charge sequence the meter sees
		// is identical to an unmemoized run (trace playback re-applies the
		// exact per-event floats), so virtual times stay bit-identical.
		var key subtreeKey
		var keyOK bool
		var rec *subtreeRecord
		if b.memoOn {
			if key, keyOK = b.subtreeKeyFor(kid); keyOK {
				if v, ok := memo.load(memoSubtree, memoLevel(kid.Span()), key); ok {
					rec = v.(*subtreeRecord)
				}
			}
		}
		// Trace one span per recursion child — the same boundary the
		// checkpoint above polls. Both the span and its virtual-time
		// attribute only *read* the machine meter, so an attached tracer
		// cannot perturb the charge sequence (golden times stay
		// bit-identical); with no tracer, sp is nil and every hook below
		// is a nil check. Error unwinds leave sp open, which the
		// exporters tolerate — the run's trace is abandoned anyway.
		spanName := "block"
		if rec != nil {
			spanName = "block:replayed"
		}
		sp := b.ec.tr.Start(spanName)
		var vt0 float64
		if sp != nil {
			vt0 = b.mach.Meter().Now()
		}
		kidSpans := b.columns(kid)
		kidGin := dag.Preboundary(b.g, kid)
		live := dag.LiveOut(b.g, kid)
		skid, err := b.spaceNeeded(kid)
		if err != nil {
			return err
		}

		// Copy incoming data into the child's top slot: images first,
		// then broadcast words. The override buffer is this depth's arena
		// slot; deeper recursion uses its own.
		overrides := b.ovStack[depth][:0]
		dst := skid - b.inSize(kid, kidSpans)
		if dst < 0 {
			return fmt.Errorf("simulate: child slot underflow in %v", kid)
		}
		for _, s := range kidSpans {
			if s.ta < 1 {
				continue
			}
			k := memKey(s.pos, s.ta)
			src, ok := b.mem.Get(k)
			if !ok {
				return fmt.Errorf("simulate: image %v unavailable for %v", k, kid)
			}
			b.mach.BlockCopy(dst, src, b.iw)
			overrides = append(overrides, savedAddr{k, src, true})
			b.mem.Set(k, dst)
			dst += b.iw
		}
		for _, q := range kidGin {
			src, ok := b.bcast.Get(q)
			if !ok {
				return fmt.Errorf("simulate: broadcast %v unavailable for %v", q, kid)
			}
			b.mach.MoveWord(dst, src)
			overrides = append(overrides, savedAddr{q, src, false})
			b.bcast.Set(q, dst)
			dst++
		}
		b.ovStack[depth] = overrides

		if rec != nil {
			// Replay: re-apply the recorded charge sequence and rebind the
			// child's products to their recorded addresses. The child frame
			// is always the absolute range [0, skid), so the recorded
			// addresses are valid verbatim at this congruent site. Machine
			// memory is NOT written — the wrapper recomputes outputs
			// guest-side when any subtree replayed.
			rec.trace.Play(b.mach.Meter())
			if n := len(b.recs); n > 0 {
				b.recs[n-1].Child(rec.trace)
			}
			for i, s := range kidSpans {
				b.mem.Set(memKey(s.pos, s.tb+1), rec.imgAddrs[i])
			}
			for i, v := range live {
				b.bcast.Set(v, rec.outAddrs[i])
			}
			b.replayed++
			// Progress advances by the whole replayed subtree; the
			// cancellation poll still fires here.
			if err := b.ec.step(kid.Size()); err != nil {
				return err
			}
		} else {
			var kr *cost.Recorder
			if keyOK {
				kr = &cost.Recorder{}
				b.recs = append(b.recs, kr)
			}
			err := b.exec(kid, skid, depth+1)
			if kr != nil {
				b.recs = b.recs[:len(b.recs)-1]
			}
			if err != nil {
				// No publication on an error unwind: a cancelled or failed
				// subtree never poisons the memo.
				return err
			}
			if kr != nil {
				nr := &subtreeRecord{trace: kr.Trace(), space: skid,
					imgAddrs: make([]int, len(kidSpans)), outAddrs: make([]int, len(live))}
				for i, s := range kidSpans {
					a, ok := b.mem.Get(memKey(s.pos, s.tb+1))
					if !ok {
						return fmt.Errorf("simulate: produced image %v missing after %v", memKey(s.pos, s.tb+1), kid)
					}
					nr.imgAddrs[i] = a
				}
				for i, v := range live {
					a, ok := b.bcast.Get(v)
					if !ok {
						return fmt.Errorf("simulate: live-out %v missing after %v", v, kid)
					}
					nr.outAddrs[i] = a
				}
				memo.store(memoSubtree, memoLevel(kid.Span()), key, nr)
				// The outer recorder (if any) saw none of the child's
				// charges while the inner recorder held the tap; link the
				// finished trace in its place.
				if n := len(b.recs); n > 0 {
					b.recs[n-1].Child(nr.trace)
				}
			}
		}
		overrides = b.ovStack[depth]

		// Persist the child's products into staging: produced images and
		// live-out broadcasts.
		for _, s := range kidSpans {
			k := memKey(s.pos, s.tb+1)
			src, ok := b.mem.Get(k)
			if !ok {
				return fmt.Errorf("simulate: produced image %v missing after %v", k, kid)
			}
			stagePtr -= b.iw
			if stagePtr < skid {
				return fmt.Errorf("simulate: staging underflow in %v", dom)
			}
			b.mach.BlockCopy(stagePtr, src, b.iw)
			b.mem.Set(k, stagePtr)
		}
		for _, v := range live {
			b.live.Add(v)
			src, ok := b.bcast.Get(v)
			if !ok {
				return fmt.Errorf("simulate: live-out %v missing after %v", v, kid)
			}
			stagePtr--
			if stagePtr < skid {
				return fmt.Errorf("simulate: staging underflow in %v", dom)
			}
			b.mach.MoveWord(stagePtr, src)
			b.bcast.Set(v, stagePtr)
		}

		// Restore incoming keys to the parent copies, then drop dead
		// entries: consumed images and non-live broadcasts of the child.
		for _, s := range overrides {
			if s.mem {
				b.mem.Set(s.p, s.add)
			} else {
				b.bcast.Set(s.p, s.add)
			}
		}
		for _, s := range kidSpans {
			if s.ta >= 1 {
				b.mem.Delete(memKey(s.pos, s.ta))
			}
		}
		kid.Points(func(p lattice.Point) bool {
			if !b.live.Has(p) {
				b.bcast.Delete(p)
			}
			return true
		})
		for _, v := range live {
			b.live.Remove(v)
		}
		if sp != nil {
			sp.SetAttr("depth", float64(depth))
			sp.SetAttr("size", float64(kid.Size()))
			sp.SetAttr("vtime", b.mach.Meter().Now()-vt0)
			sp.End()
		}
	}
	return nil
}

// execLeaf simulates the domain naively in place: all column images
// resident at the bottom of the workspace, broadcast values above them.
// The colIdx scratch table holds each column's image base address for the
// duration of the leaf.
func (b *blockedExec) execLeaf(dom lattice.Domain) error {
	spans := b.columns(dom)
	next := 0
	for _, s := range spans {
		b.colIdx.Set(s.pos, next)
		next += b.iw
	}
	// Bring consumed images local.
	for _, s := range spans {
		if s.ta >= 1 {
			k := memKey(s.pos, s.ta)
			src, ok := b.mem.Get(k)
			if !ok {
				return b.drainLeaf(spans, fmt.Errorf("simulate: image %v unavailable in leaf %v", k, dom))
			}
			base, _ := b.colIdx.Get(s.pos)
			b.mach.BlockCopy(base, src, b.iw)
			b.mem.Set(k, base)
		}
	}
	var fail error
	dom.Points(func(p lattice.Point) bool {
		base, _ := b.colIdx.Get(lattice.Point{X: p.X, Y: p.Y, Z: p.Z})
		node := b.geom.nodeIndex(p)
		if p.T == 0 {
			// Materialize the initial state. The initial memory image is
			// an input: it sits in the host's memory from the start (the
			// paper charges only its relocation, which the recursion's
			// BlockCopy calls do), so Poke is free; the broadcast value
			// of the input vertex (v, 0) costs one op and one write.
			for i := range b.initMem {
				b.initMem[i] = 0
			}
			bv := b.prog.Init(node, b.initMem)
			for i, w := range b.initMem[:b.iw] {
				b.mach.Poke(base+i, w)
			}
			b.mach.Op()
			b.mach.Write(next, bv)
			b.bcast.Set(p, next)
			next++
			return true
		}
		cellOff := b.prog.Address(node, p.T, b.m)
		if cellOff >= b.iw {
			fail = fmt.Errorf("simulate: address %d beyond declared live memory %d", cellOff, b.iw)
			return false
		}
		addr := base + cellOff
		cell := b.mach.Read(addr)
		b.ptsBuf = b.geom.operands(p, b.ptsBuf[:0])
		b.opsBuf = b.opsBuf[:0]
		for _, q := range b.ptsBuf {
			a, ok := b.bcast.Get(q)
			if !ok {
				fail = fmt.Errorf("simulate: operand %v of %v unavailable in leaf", q, p)
				return false
			}
			b.opsBuf = append(b.opsBuf, b.mach.Read(a))
		}
		out, cellOut := b.prog.Step(node, p.T, cell, b.opsBuf)
		b.mach.Op()
		b.mach.Write(addr, cellOut)
		b.mach.Write(next, out)
		b.bcast.Set(p, next)
		next++
		return true
	})
	// One amortized cancellation/progress check per executed leaf keeps
	// the per-vertex loop free of checking overhead; leaves are D(m)-sized,
	// so cancellation latency stays bounded by one small leaf kernel.
	if fail == nil {
		fail = b.ec.step(dom.Size())
	}
	if fail != nil {
		return b.drainLeaf(spans, fail)
	}
	// Rename images in place: consumed Mem(v, ta) becomes produced
	// Mem(v, tb+1) at zero cost.
	for _, s := range spans {
		base, _ := b.colIdx.Get(s.pos)
		b.mem.Delete(memKey(s.pos, s.ta))
		b.mem.Set(memKey(s.pos, s.tb+1), base)
	}
	return b.drainLeaf(spans, nil)
}

// drainLeaf releases the colIdx scratch entries of a leaf, passing err
// through.
func (b *blockedExec) drainLeaf(spans []colSpan, err error) error {
	for _, s := range spans {
		b.colIdx.Delete(s.pos)
	}
	return err
}

// collect gathers the final broadcast values and memory images in node
// index order after the root execution. Replayed subtrees charge the
// meter without writing machine memory, so when any subtree replayed
// the outputs are recomputed guest-side instead (value-independent
// charges make this sound; Verify still works).
func (b *blockedExec) collect() ([]hram.Word, [][]hram.Word, error) {
	n := b.geom.mesh.Nodes()
	if b.replayed > 0 {
		g, err := stepGuest(b.ec, b.geom.d, n, b.m, b.steps, b.prog)
		if err != nil {
			return nil, nil, err
		}
		return g.Outputs(), g.Memories(), nil
	}
	out := make([]hram.Word, n)
	mems := make([][]hram.Word, n)
	staticBuf := make([]hram.Word, b.m)
	for node := 0; node < n; node++ {
		pos := b.geom.nodePos(node)
		addr, ok := b.bcast.Get(memKey(pos, b.steps))
		if !ok {
			return nil, nil, fmt.Errorf("simulate: missing final broadcast of node %d", node)
		}
		out[node] = b.mach.Peek(addr)
		base, ok := b.mem.Get(memKey(pos, b.steps+1))
		if !ok {
			return nil, nil, fmt.Errorf("simulate: missing final memory of node %d", node)
		}
		mems[node] = make([]hram.Word, b.m)
		for i := 0; i < b.iw; i++ {
			mems[node][i] = b.mach.Peek(base + i)
		}
		if b.iw < b.m {
			// Cells beyond the declared live region are never addressed;
			// they retain their initial contents.
			for i := range staticBuf {
				staticBuf[i] = 0
			}
			b.prog.Init(node, staticBuf)
			copy(mems[node][b.iw:], staticBuf[b.iw:])
		}
	}
	return out, mems, nil
}

// imageWords resolves the relocated image width m' for prog on an m-dense
// machine (the MemUser restriction).
func imageWords(prog network.Program, m int) (int, error) {
	if mu, ok := prog.(MemUser); ok {
		iw := mu.MemWords(m)
		if iw < 1 || iw > m {
			return 0, fmt.Errorf("simulate: MemWords(%d) = %d out of range", m, iw)
		}
		return iw, nil
	}
	return m, nil
}
