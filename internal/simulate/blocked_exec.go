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

// This file is the one Proposition 2 recursion, behind BlockedContext,
// BlockedAnalyticD1Context and UniDCContext: it copies each piece's
// preboundary down, executes the piece in [0, S(piece)), and stages its
// live-outs below S(domain), generic over the mesh dimension and run on
// one of two machines. On hram.New's machine it is exact, guest values
// included; on hram.NewCharges' charge-only machine it is the analytic
// mode, which charges the same sequence without storing a word.
//
// Two value flows run through it. The image flows (blocked and
// blocked-analytic) move broadcast words and whole column images, and
// execute leaves of span at most leafSpan with every image resident. The
// vertex flow (UniDC, m = 1) moves broadcast words alone (iw = 0) and
// executes a leaf vertex by vertex over a dag.Program; a domain of at
// most leafSize vertices, or one too small to split, is its leaf.
// Values are addressed by lattice.AddrTables indexed over the dag's
// bounding box (dense up to 2²⁴ points, sparse above), and all scratch
// (column indices, override stacks, child geometry) is arena-allocated
// once per run and reused across every recursion level.
//
// Address-table layout. A broadcast value lives at its dag vertex
// (x, t) (d = 2: (x, y, t); d = 3: (x, y, z, t)). A column image is keyed
// by (node position, entry time): node v's m'-word live memory before
// step t; t = steps+1 is the final image. Both key spaces embed in the
// dag's bounding box extended one time layer past the final step, so one
// Indexer serves both tables.
//
// Cleanup rule. A table holds only what is still to be read: a leaf
// deletes its vertices that are not its live-outs, and a domain, when it
// finishes, deletes its children's live-outs that it consumed (those
// that are not its own live-outs). A vertex is a live-out of a domain if
// it is on the last layer or a vertex outside the domain reads it. So a
// stale read fails loudly, a replayed subtree leaves the tables as an
// executed one would, and a sparse table holds O(surface) entries.
//
// Scratch lifetime rules — the invariants that make single arenas safe:
//
//   - colIdx and leafPts are populated and drained entirely within
//     a leaf, which never overlaps a deeper use.
//   - ovStack, geo and used hand each recursion depth its own override
//     buffer, child geometry and list of the live-outs its finished
//     children handed it to consume, so a parent's stay intact while its
//     children recurse.
//
// A domain's columns, preboundary and live-out set come from one
// O(surface) enumeration (dag.Boundary) per visit: the planning pass
// enumerates each domain shape once, and the execution pass once per
// child visit, handing the child its geometry.
//
// The sequence of machine operations (BlockCopy, MoveWord, Read, Write,
// Op) is part of the virtual-time contract: every measured virtual time
// is pinned by the golden assertions in golden_test.go, and the analytic
// mode's by TestAnalyticMatchesExact.

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

// blockedExec runs one Proposition 2 recursion on one H-RAM. Exactly one
// of prog (an image flow) and dprog (the vertex flow) is set.
type blockedExec struct {
	g        dag.Graph
	prog     network.Program
	dprog    dag.Program
	m        int // guest memory density
	iw       int // image words actually relocated: m' <= m (MemUser); 0 in the vertex flow
	steps    int
	leafSpan int
	leafSize int // vertex flow: a domain of at most leafSize vertices is a leaf; 0 otherwise
	mach     *hram.Machine
	analytic bool // mach is charge-only: no guest values, delta memo records
	geom     blockedGeom
	ec       *execCtx // cancellation + progress; host-side only

	bcast   *lattice.AddrTable // broadcast-word addresses per dag vertex
	mem     *lattice.AddrTable // column-image addresses per (node, entry time)
	colIdx  *lattice.AddrTable // scratch position -> image base in a leaf
	ovStack [][]savedAddr      // per-depth override buffers
	used    [][]lattice.Point  // per-depth consumed live-outs of finished children
	space   map[lattice.Domain]blockedPlan

	// children partitions a domain: lattice.Domain.Children, or a
	// broken partition a failure-injection test hands the recursion.
	children func(lattice.Domain) []lattice.Domain

	// Boundary geometry: the enumeration's scratch, the planning pass's
	// result buffer, one child geometry per recursion depth, and the
	// column order (see columnOrder).
	bd    dag.Boundary
	surf  dag.Surface
	geo   []dag.Surface
	order dag.ColumnOrder

	ptsBuf  []lattice.Point
	opsBuf  []hram.Word
	initMem []hram.Word
	leafPts []lattice.Point // the running leaf's vertices
	levels  []LevelStat     // the relocation profile per recursion depth

	// Subtree memoization state (enableMemo). The exact machine records
	// charge traces: recs is the stack of active trace recorders, and the
	// meter's tap feeds the top entry, so a recording subtree captures
	// exactly its own charge interval while nested recordings and replays
	// link in as trace children. The charge-only machine records (clock,
	// ledger) deltas instead. replayed counts memo hits; when nonzero,
	// machine memory holds garbage at replayed addresses and collect
	// recomputes outputs guest-side.
	memoOn   bool
	progFP   string
	recs     []*cost.Recorder
	replayed int
}

// enableMemo arms subtree memoization: congruent recursion subtrees are
// recorded once and replayed at every later congruent site, as trace
// playback on the exact machine and as one (clock, ledger) delta on the
// charge-only one. Requires a guest whose address pattern is
// classifiable (addrClasser); otherwise the run proceeds unmemoized, as
// the vertex flow always does (a dag program has no address class). The
// meter tap only observes charges — it never charges — so arming it
// cannot perturb virtual times.
func (b *blockedExec) enableMemo() {
	if _, ok := b.prog.(addrClasser); !ok {
		return
	}
	b.memoOn = true
	b.progFP = progFingerprint(b.prog)
	if b.analytic {
		return
	}
	b.mach.Meter().SetTap(func(cat cost.Category, dt cost.Time) {
		if n := len(b.recs); n > 0 {
			b.recs[n-1].Record(cat, dt)
		}
	})
}

// memoKind is the store partition of the run's records: traces
// (memoSubtree) on the exact machine, deltas (memoAnalytic) on the
// charge-only one.
func (b *blockedExec) memoKind() memoKind {
	if b.analytic {
		return memoAnalytic
	}
	return memoSubtree
}

// subtreeKeyFor builds dom's congruence-class key in O(1): canonical
// translated shape, clip clamped near the domain, machine stride, hram
// pricing mode, recursion cutoff, and the guest's address class at the
// domain's reference vertex. ok = false disables memoization for dom.
func (b *blockedExec) subtreeKeyFor(dom lattice.Domain) (subtreeKey, bool) {
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
		m: b.m, iw: b.iw, leafSpan: b.leafSpan,
		pipelined: b.mach.Pipelined(), side: side,
		shape: canonicalDomain(dom), class: class, prog: b.progFP,
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

// newBlockedExec allocates an image flow's address tables for graph g.
// The index box is g's bounds with one extra time layer, so the final
// images Mem(v, steps+1) are addressable.
func newBlockedExec(ctx context.Context, g dag.Graph, prog network.Program, m, iw, steps, leafSpan int, geom blockedGeom) *blockedExec {
	bounds := g.Bounds()
	bounds.T1++
	ix := lattice.NewIndexer(bounds)
	return &blockedExec{
		g: g, prog: prog, m: m, iw: iw, steps: steps, leafSpan: leafSpan, geom: geom,
		ec:       newExecCtx(ctx),
		bcast:    lattice.NewAddrTable(ix),
		mem:      lattice.NewAddrTable(ix),
		colIdx:   lattice.NewAddrTable(lattice.NewIndexer(spatialClip(bounds))),
		space:    make(map[lattice.Domain]blockedPlan),
		children: lattice.Domain.Children,
		order:    columnOrder(geom.d),
		opsBuf:   make([]hram.Word, 0, 7),
		initMem:  make([]hram.Word, m),
	}
}

// defaultLeafSize is the vertex flow's leaf size when the caller passes
// none: any small constant keeps the asymptotics, and 8 keeps the
// recursion overhead low.
const defaultLeafSize = 8

// newVertexExec allocates the vertex flow for prog's dag g: no images,
// so only the broadcast table, over g's own bounds. Its columns carry
// no images, so their order does not matter; ByPosition is the cheaper.
func newVertexExec(ctx context.Context, g dag.Graph, prog dag.Program, leafSize int, geom blockedGeom) *blockedExec {
	if leafSize <= 0 {
		leafSize = defaultLeafSize
	}
	return &blockedExec{
		g: g, dprog: prog, m: 1, steps: g.Steps(), leafSpan: 1, leafSize: leafSize, geom: geom,
		ec:       newExecCtx(ctx),
		bcast:    lattice.NewAddrTable(lattice.NewIndexer(g.Bounds())),
		space:    make(map[lattice.Domain]blockedPlan),
		children: lattice.Domain.Children,
		order:    dag.ByPosition,
		opsBuf:   make([]hram.Word, 0, 5),
	}
}

// spatialClip is the T = 0 slice of a box: the index space of node
// positions.
func spatialClip(c lattice.Clip) lattice.Clip {
	c.T0, c.T1 = 0, 1
	return c
}

// columnOrder is the order of a domain's columns: by x on the d = 1
// line, and by (ta, x, y, z), the order a (T, X, Y, Z) walk first meets
// them, at d >= 2. Column order fixes the memory layout of images in
// leaves and staging areas, so it is part of the virtual-time contract.
func columnOrder(d int) dag.ColumnOrder {
	if d == 1 {
		return dag.ByPosition
	}
	return dag.ByStart
}

// memInCount is the number of images dom consumes: columns whose first
// simulated vertex time is >= 1 (ta = 0 columns materialize their own
// image from prog.Init).
func memInCount(cols []lattice.Column) int {
	n := 0
	for _, c := range cols {
		if c.Ta >= 1 {
			n++
		}
	}
	return n
}

// inSize is the word count of a domain's incoming data: one word per
// preboundary broadcast value plus iw words per consumed image.
func inSize(geo *dag.Surface, iw int) int {
	return len(geo.Pre) + iw*memInCount(geo.Cols)
}

// isLeaf reports whether dom is executed directly. An image flow's
// leafSpan is at least 2, and a domain of span 2 or more can always be
// split, so there the span alone decides. The vertex flow's leafSpan is
// 1, the span below which a domain cannot be split, and a domain of at
// most leafSize vertices is a leaf too.
func (b *blockedExec) isLeaf(dom lattice.Domain) bool {
	return dom.Span() <= b.leafSpan || (b.leafSize > 0 && dom.Size() <= b.leafSize)
}

// blockedPlan is the planning pass's record of one domain: its space
// allowance and the words its parent stages for it (live-out broadcasts
// plus one image per column).
type blockedPlan struct{ space, stage int }

// spaceNeeded computes Proposition 2's space allowance S(dom): a leaf
// needs its resident images, one word per vertex and its incoming data;
// an inner domain its largest child's allowance, plus the words it
// stages for its children, plus its incoming data. A plan depends only
// on the domain's geometry, so it is memoized by canonical shape
// (canonicalDomain, the subtree memo's notion of congruence) and the
// planning recursion expands each shape once. That recursion runs
// before a single vertex executes — at large (n, steps) that is seconds
// of work — so it polls cancellation at every node it expands; a caller
// that has already given up never reaches execution.
func (b *blockedExec) spaceNeeded(dom lattice.Domain) (blockedPlan, error) {
	shape := canonicalDomain(dom)
	if p, ok := b.space[shape]; ok {
		return p, nil
	}
	if err := b.ec.poll(); err != nil {
		return blockedPlan{}, err
	}
	b.bd.Compute(b.g, dom, b.order, &b.surf)
	in := inSize(&b.surf, b.iw)
	p := blockedPlan{stage: len(b.surf.Live) + b.iw*len(b.surf.Cols)}
	if b.isLeaf(dom) {
		// Working space: every column image resident plus one word per
		// vertex for broadcast values.
		p.space = len(b.surf.Cols)*b.iw + dom.Size() + in
	} else {
		smax, stage := 0, 0
		for _, kid := range b.children(dom) {
			kp, err := b.spaceNeeded(kid)
			if err != nil {
				return blockedPlan{}, err
			}
			smax = max(smax, kp.space)
			stage += kp.stage
		}
		p.space = smax + stage + in
	}
	b.space[shape] = p
	return p, nil
}

// exec implements the Proposition 2 recursion; geo is dom's geometry,
// enumerated by the caller's visit. Contract: incoming keys (preboundary
// broadcasts and consumed images) have valid addresses on entry; on
// exit, live-out broadcasts and the produced images Mem(v, tb+1) have
// valid addresses, and no other broadcast of dom has one. An inner
// domain counts itself, and the words and Transfer time of its
// children's copy-downs and stagings, in its depth's LevelStat.
func (b *blockedExec) exec(dom lattice.Domain, geo dag.Surface, space, depth int) error {
	if b.isLeaf(dom) {
		if b.dprog != nil {
			return b.execVertexLeaf(dom, geo)
		}
		return b.execLeaf(dom, geo)
	}
	b.level(depth).Domains++
	// The incoming slot occupies [space-inSize, space); staging grows
	// downward from its floor.
	stagePtr := space - inSize(&geo, b.iw)
	for len(b.ovStack) <= depth {
		b.ovStack = append(b.ovStack, nil)
		b.geo = append(b.geo, dag.Surface{})
		b.used = append(b.used, nil)
	}
	b.used[depth] = b.used[depth][:0]
	consumed := func(p lattice.Point) { b.used[depth] = append(b.used[depth], p) }
	meter := b.mach.Meter()

	for _, kid := range b.children(dom) {
		if err := b.ec.checkpoint(); err != nil {
			return err
		}
		// A memo hit replays the child's record instead of recursing; a
		// classifiable miss records the recursion for future congruent
		// sites. A trace replay re-applies the exact per-event floats, so
		// the exact machine's virtual times stay bit-identical; a delta
		// replay adds the interval's sums, equal up to float regrouping.
		var key subtreeKey
		var keyOK bool
		var rec *subtreeRecord
		if b.memoOn {
			if key, keyOK = b.subtreeKeyFor(kid); keyOK {
				if v, ok := memo.load(b.memoKind(), memoLevel(kid.Span()), key); ok {
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
			vt0 = meter.Now()
		}
		// The child's geometry is this depth's arena slot, like its
		// override buffer below; deeper recursion uses its own.
		kg := b.geo[depth]
		b.bd.Compute(b.g, kid, b.order, &kg)
		b.geo[depth] = kg
		kidSpans, kidGin, live := kg.Cols, kg.Pre, kg.Live
		if b.iw == 0 {
			// The vertex flow moves no images: skip the image loops.
			kidSpans = nil
		}
		kp, err := b.spaceNeeded(kid)
		if err != nil {
			return err
		}
		skid := kp.space

		// Copy incoming data into the child's top slot: images first,
		// then broadcast words.
		overrides := b.ovStack[depth][:0]
		in := inSize(&kg, b.iw)
		dst := skid - in
		if dst < 0 {
			return fmt.Errorf("simulate: child slot underflow in %v", kid)
		}
		t0 := meter.Total(cost.Transfer)
		for _, s := range kidSpans {
			if s.Ta < 1 {
				continue
			}
			k := memKey(s.Pos, s.Ta)
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
		b.tally(depth, in, t0)

		if rec != nil {
			// Replay: re-apply the recorded charges and rebind the child's
			// products to their recorded addresses. The child frame is
			// always the absolute range [0, skid), so the recorded
			// addresses are valid verbatim at this congruent site. Machine
			// memory is NOT written — the wrapper recomputes outputs
			// guest-side when any subtree replayed.
			if rec.trace != nil {
				rec.trace.Play(meter)
				if n := len(b.recs); n > 0 {
					b.recs[n-1].Child(rec.trace)
				}
			} else {
				meter.ApplyDelta(rec.dt, &rec.ledger)
			}
			rec.rebind(kidSpans, live, b.mem.Set, b.bcast.Set)
			b.replayed++
			// Progress advances by the whole replayed subtree; the
			// cancellation poll still fires here.
			if err := b.ec.step(kid.Size()); err != nil {
				return err
			}
		} else {
			var kr *cost.Recorder
			var t0 cost.Time
			var led0 cost.Ledger
			if keyOK {
				if b.analytic {
					t0, led0 = meter.Now(), meter.Ledger
				} else {
					kr = &cost.Recorder{}
					b.recs = append(b.recs, kr)
				}
			}
			err := b.exec(kid, kg, skid, depth+1)
			if kr != nil {
				b.recs = b.recs[:len(b.recs)-1]
			}
			if err != nil {
				// No publication on an error unwind: a cancelled or failed
				// subtree never poisons the memo.
				return err
			}
			if keyOK {
				r := subtreeRecord{space: skid}
				if kr != nil {
					r.trace = kr.Trace()
					// The outer recorder (if any) saw none of the child's
					// charges while the inner recorder held the tap; link
					// the finished trace in its place.
					if n := len(b.recs); n > 0 {
						b.recs[n-1].Child(r.trace)
					}
				} else {
					r.dt, r.ledger = meter.Now()-t0, meter.Ledger.Sub(&led0)
				}
				// A declined record is not published; a missing product
				// fails the staging below.
				if nr, ok := newSubtreeRecord(r, kidSpans, live, b.mem.Get, b.bcast.Get); ok {
					memo.store(b.memoKind(), memoLevel(kid.Span()), key, nr)
				}
			}
		}
		overrides = b.ovStack[depth]

		// Persist the child's products into staging: produced images and
		// live-out broadcasts.
		t0 = meter.Total(cost.Transfer)
		for _, s := range kidSpans {
			k := memKey(s.Pos, s.Tb+1)
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
		b.tally(depth, kp.stage, t0)
		// The live-outs dom does not export are consumed inside it.
		geo.EachDead(live, consumed)

		// Restore incoming keys to the parent copies, then drop the
		// consumed images.
		for _, s := range overrides {
			if s.mem {
				b.mem.Set(s.p, s.add)
			} else {
				b.bcast.Set(s.p, s.add)
			}
		}
		for _, s := range kidSpans {
			if s.Ta >= 1 {
				b.mem.Delete(memKey(s.Pos, s.Ta))
			}
		}
		if sp != nil {
			sp.SetAttr("depth", float64(depth))
			sp.SetAttr("size", float64(kid.Size()))
			sp.SetAttr("vtime", meter.Now()-vt0)
			sp.End()
		}
	}
	for _, p := range b.used[depth] {
		b.bcast.Delete(p)
	}
	return nil
}

// level returns depth's LevelStat, growing the profile.
func (b *blockedExec) level(depth int) *LevelStat {
	for len(b.levels) <= depth {
		b.levels = append(b.levels, LevelStat{})
	}
	return &b.levels[depth]
}

// tally adds words relocated at depth, and the Transfer time charged
// since t0, to the level profile.
func (b *blockedExec) tally(depth, words int, t0 cost.Time) {
	st := b.level(depth)
	st.WordsMoved += words
	st.TransferTime += b.mach.Meter().Total(cost.Transfer) - t0
}

// execLeaf simulates the domain naively in place: all column images
// resident at the bottom of the workspace, broadcast values above them.
// The colIdx scratch table holds each column's image base address for the
// duration of the leaf.
func (b *blockedExec) execLeaf(dom lattice.Domain, geo dag.Surface) error {
	spans := geo.Cols
	next := 0
	for _, s := range spans {
		b.colIdx.Set(s.Pos, next)
		next += b.iw
	}
	// Bring consumed images local.
	for _, s := range spans {
		if s.Ta >= 1 {
			k := memKey(s.Pos, s.Ta)
			src, ok := b.mem.Get(k)
			if !ok {
				return b.drainLeaf(spans, fmt.Errorf("simulate: image %v unavailable in leaf %v", k, dom))
			}
			base, _ := b.colIdx.Get(s.Pos)
			b.mach.BlockCopy(base, src, b.iw)
			b.mem.Set(k, base)
		}
	}
	var fail error
	b.leafPts = b.leafPts[:0]
	dom.Points(func(p lattice.Point) bool {
		base, _ := b.colIdx.Get(lattice.Point{X: p.X, Y: p.Y, Z: p.Z})
		node := b.geom.nodeIndex(p)
		b.leafPts = append(b.leafPts, p)
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
		base, _ := b.colIdx.Get(s.Pos)
		b.mem.Delete(memKey(s.Pos, s.Ta))
		b.mem.Set(memKey(s.Pos, s.Tb+1), base)
	}
	geo.EachDead(b.leafPts, b.bcast.Delete)
	return b.drainLeaf(spans, nil)
}

// drainLeaf releases the colIdx scratch entries of a leaf, passing err
// through.
func (b *blockedExec) drainLeaf(spans []lattice.Column, err error) error {
	for _, s := range spans {
		b.colIdx.Delete(s.Pos)
	}
	return err
}

// execVertexLeaf is the vertex flow's leaf: it executes dom's vertices
// in dom.Points order, reading each one's operands in Graph.Preds order.
// An input vertex (t = 0) takes its value from Input, any other from
// Step. Each vertex costs one op and one write, at addresses counting
// up from 0. The leaf then keeps only its live-outs in the broadcast
// table.
func (b *blockedExec) execVertexLeaf(dom lattice.Domain, geo dag.Surface) error {
	next := 0
	var fail error
	b.leafPts = b.leafPts[:0]
	dom.Points(func(p lattice.Point) bool {
		b.ptsBuf = b.g.Preds(p, b.ptsBuf[:0])
		b.opsBuf = b.opsBuf[:0]
		for _, q := range b.ptsBuf {
			a, ok := b.bcast.Get(q)
			if !ok {
				fail = fmt.Errorf("simulate: operand %v of %v unavailable in leaf", q, p)
				return false
			}
			b.opsBuf = append(b.opsBuf, b.mach.Read(a))
		}
		var v dag.Value
		if p.T == 0 {
			v = b.dprog.Input(p)
		} else {
			v = b.dprog.Step(p, b.opsBuf)
		}
		b.mach.Op()
		b.mach.Write(next, v)
		b.bcast.Set(p, next)
		next++
		b.leafPts = append(b.leafPts, p)
		return true
	})
	if fail == nil {
		fail = b.ec.step(dom.Size())
	}
	if fail != nil {
		return fail
	}
	geo.EachDead(b.leafPts, b.bcast.Delete)
	return nil
}

// collect gathers the final layer's broadcast values and, in an image
// flow, the final memory images, in node index order after the root
// execution. Replayed subtrees charge the meter without writing machine
// memory, so when any subtree replayed the outputs are recomputed
// guest-side instead (value-independent charges make this sound; Verify
// still works).
func (b *blockedExec) collect() ([]hram.Word, []hram.Word, error) {
	n := b.geom.mesh.Nodes()
	if b.replayed > 0 {
		g, err := stepGuest(b.ec, b.geom.d, n, b.m, b.steps, b.prog)
		if err != nil {
			return nil, nil, err
		}
		return g.Outputs(), g.Memory(), nil
	}
	out := make([]hram.Word, n)
	var mem, staticBuf []hram.Word
	if b.iw > 0 {
		mem, staticBuf = make([]hram.Word, n*b.m), make([]hram.Word, b.m)
	}
	last := b.g.Steps() - 1
	for node := 0; node < n; node++ {
		pos := b.geom.nodePos(node)
		addr, ok := b.bcast.Get(memKey(pos, last))
		if !ok {
			return nil, nil, fmt.Errorf("simulate: missing final broadcast of node %d", node)
		}
		out[node] = b.mach.Peek(addr)
		if mem == nil {
			continue
		}
		base, ok := b.mem.Get(memKey(pos, b.steps+1))
		if !ok {
			return nil, nil, fmt.Errorf("simulate: missing final memory of node %d", node)
		}
		cells := mem[node*b.m : (node+1)*b.m]
		for i := 0; i < b.iw; i++ {
			cells[i] = b.mach.Peek(base + i)
		}
		if b.iw < b.m {
			// Cells beyond the declared live region are never addressed;
			// they retain their initial contents.
			for i := range staticBuf {
				staticBuf[i] = 0
			}
			b.prog.Init(node, staticBuf)
			copy(cells[b.iw:], staticBuf[b.iw:])
		}
	}
	return out, mem, nil
}

// run is the one run sequence behind every entry point: it plans root,
// releases the planning buffer, sizes the machine to root's allowance
// (a charge-only one when analytic), executes root, and collects the
// guest state on the machine that stores words.
func (b *blockedExec) run(root lattice.Domain, analytic bool, opts ...hram.Option) (Result, error) {
	defer b.ec.publish()
	plan, err := b.spaceNeeded(root)
	if err != nil {
		return Result{}, err
	}
	// The planning buffer has grown to the run's largest surface, the
	// root's, and execution only looks plans up: release it.
	b.surf = dag.Surface{}
	var meter cost.Meter
	newMachine := hram.New
	if analytic {
		newMachine = hram.NewCharges
	}
	b.mach, b.analytic = newMachine(plan.space, hram.Standard(b.geom.d, b.m), &meter, opts...), analytic
	if memoEnabled(b.ec.ctx) {
		b.enableMemo()
	}
	var geo dag.Surface
	b.bd.Compute(b.g, root, b.order, &geo)
	if err := b.exec(root, geo, plan.space, 0); err != nil {
		return Result{}, err
	}
	res := Result{Time: meter.Now(), Ledger: meter.Ledger, Steps: b.steps, Space: plan.space, Levels: b.levels}
	if !analytic {
		if res.Outputs, res.Memory, err = b.collect(); err != nil {
			return Result{}, err
		}
	}
	return res, nil
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
