package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/cost"
	"bsmp/internal/dag"
	"bsmp/internal/hram"
	"bsmp/internal/lattice"
	"bsmp/internal/network"
)

// This file is the analytic fast path of the blocked d = 1 recursion:
// BlockedAnalyticD1Context computes the virtual time and cost ledger of the
// d = 1 BlockedContext simulation WITHOUT materializing the machine — no hram
// memory, no guest values, no O(volume) state. Charges are derived from
// the same formulas hram.Machine uses (f(x) = max(1, x/m) per access,
// per-word block transfers), addresses are tracked in sparse maps, and
// every congruent recursion subtree beyond the first is replayed as one
// summed (clock delta, ledger delta) via the unified memo store
// (kind = analytic). Geometry is enumerated per COLUMN, not per vertex:
// a diamond's columns, preboundary, and live-out set are all O(width)
// (dag.Boundary, the enumeration the exact engines use), so a memoized
// run costs O(boundary work + leaf classes), making
// lattice volumes of 10^9+ (n = 2^20 × steps = 2^10) tractable in
// seconds where the exact engine would need hours and ~10 GB.
//
// What the analytic path does NOT provide: guest outputs (Result.Outputs
// and Result.Memories are nil — no prog.Init/Step is ever called) and
// bit-identity with the exact engine (deltas are replayed as sums, so
// totals agree only to float regrouping, pinned at 1e-9 relative by
// TestAnalyticMatchesExact; the Compute ledger is exact: one unit per
// vertex). Validation for sizes the exact engine cannot reach is against
// the work/span laws (Brent) and the model's Theorem 3 predictions — see
// the E-BRENT experiment.
//
// Interior broadcast-address cleanup is skipped (the exact engine's
// kid.Points deletion loop is O(volume)): stale map entries are never
// read again because every preboundary a future subtree consumes is
// rebound by its parent's copy-in before use (the ordered-partition
// property), and entries accumulate only from real — class-miss — leaf
// executions, which the memo keeps rare.

// analyticExec carries the run state of one analytic simulation.
type analyticExec struct {
	n, m, iw, steps, leafSpan int
	prog                      network.Program
	meter                     *cost.Meter
	fn                        hram.AccessFunc
	ec                        *execCtx

	bcast pointAddrs
	mem   pointAddrs

	space      map[lattice.Diamond]blockedPlan
	classSpace map[subtreeKey]blockedPlan

	// The line's dag, the boundary enumeration's scratch, the planning
	// pass's result buffer, and one child geometry and one override
	// buffer per recursion depth, as in blockedExec.
	g       dag.LineGraph
	bd      dag.Boundary
	surf    dag.Surface
	geo     []dag.Surface
	ovStack [][]savedAddr

	memoOn   bool
	progFP   string
	replayed int
}

// pointAddrs is a sparse Point -> address table over the d = 1 lattice
// of an n-node line, keyed by the compact t*n + x: the analytic engine
// visits only O(boundary) points of volumes far too large for a dense
// lattice.AddrTable, and an int key hashes in a fraction of a Point's
// time.
type pointAddrs struct {
	n     int
	addrs map[int]int
}

func newPointAddrs(n int) pointAddrs { return pointAddrs{n, make(map[int]int)} }

func (t pointAddrs) get(p lattice.Point) (int, bool) {
	a, ok := t.addrs[p.T*t.n+p.X]
	return a, ok
}

func (t pointAddrs) set(p lattice.Point, addr int) { t.addrs[p.T*t.n+p.X] = addr }

func (t pointAddrs) del(p lattice.Point) { delete(t.addrs, p.T*t.n+p.X) }

// f is the host access function — hram.Standard(1, m) itself rather
// than a local re-derivation, so the d = 1 assumption lives in the hram
// layer, not here. The engine's address-as-distance accounting is valid
// because the guest M1(n, n, m) has topology spacing exactly 1 (a
// Mesh1 with p = n), so address deltas ARE geometric distances; a
// d >= 2 analytic engine would draw its access function and spacing
// from the corresponding mesh the same way.
func (a *analyticExec) f(x int) float64 { return a.fn(x) }

// access mirrors Machine.Read / Machine.Write.
func (a *analyticExec) access(addr int) { a.meter.Charge(cost.Access, a.f(addr)) }

// op mirrors Machine.Op.
func (a *analyticExec) op() { a.meter.Charge(cost.Compute, 1) }

// blockCopy mirrors Machine.BlockCopy in the per-word (non-pipelined)
// model: one Transfer charge of sum f(src+i) + f(dst+i).
func (a *analyticExec) blockCopy(dst, src, k int) {
	if k == 0 {
		return
	}
	var total float64
	for i := 0; i < k; i++ {
		total += a.f(src+i) + a.f(dst+i)
	}
	a.meter.Charge(cost.Transfer, total)
}

// moveWord mirrors Machine.MoveWord.
func (a *analyticExec) moveWord(dst, src int) {
	a.meter.Charge(cost.Transfer, a.f(src)+a.f(dst))
}

func (a *analyticExec) isLeaf(d lattice.Diamond) bool {
	return d.Span() <= a.leafSpan // leafSpan >= 2: see blockedExec.isLeaf
}

// surface fills s with d's columns by position, preboundary and live-out
// set in the line's dag: the geometry every copy-in, leaf and record of
// the engine is charged from.
func (a *analyticExec) surface(d lattice.Diamond, s *dag.Surface) {
	a.bd.Compute(a.g, d, dag.ByPosition, s)
}

// keyFor is subtreeKeyFor for the analytic engine: d = 1 line geometry
// (stride 0), never pipelined. Analytic records live under their own
// memo kind, so they can never collide with exact-trace records.
func (a *analyticExec) keyFor(d lattice.Diamond) (subtreeKey, bool) {
	shape, ok := canonicalDomain(d)
	if !ok {
		return subtreeKey{}, false
	}
	ref, ok := refPoint(d)
	if !ok {
		return subtreeKey{}, false
	}
	class, ok := progClass(a.prog, ref.X, ref.T, a.m)
	if !ok {
		return subtreeKey{}, false
	}
	return subtreeKey{
		d: 1, m: a.m, iw: a.iw, leafSpan: a.leafSpan,
		shape: shape, class: class, prog: a.progFP,
	}, true
}

// spaceNeeded mirrors blockedExec.spaceNeeded, memoized both per domain
// value and — decisively for huge n — per congruence class, so the
// recursion visits each class once instead of every domain.
func (a *analyticExec) spaceNeeded(d lattice.Diamond) blockedPlan {
	if p, ok := a.space[d]; ok {
		return p
	}
	var key subtreeKey
	var keyOK bool
	if a.memoOn {
		if key, keyOK = a.keyFor(d); keyOK {
			if p, ok := a.classSpace[key]; ok {
				a.space[d] = p
				return p
			}
		}
	}
	a.surface(d, &a.surf)
	in := inSize(&a.surf, a.iw)
	p := blockedPlan{stage: len(a.surf.Live) + a.iw*len(a.surf.Cols)}
	if a.isLeaf(d) {
		p.space = len(a.surf.Cols)*a.iw + d.Size() + in
	} else {
		smax, stage := 0, 0
		for _, kd := range d.Children() {
			kp := a.spaceNeeded(kd.(lattice.Diamond))
			smax = max(smax, kp.space)
			stage += kp.stage
		}
		p.space = smax + stage + in
	}
	a.space[d] = p
	if keyOK {
		a.classSpace[key] = p
	}
	return p
}

// execLeaf mirrors blockedExec.execLeaf charge for charge: image bases
// at the bottom of the workspace, vertices in global (T, X) order, one
// Op per vertex, reads of the addressed cell and the (self, left, right)
// operands, writes of the updated cell and the broadcast word. prog.Init
// and prog.Step are never called — charges are value-independent.
func (a *analyticExec) execLeaf(d lattice.Diamond, spans []lattice.Column) error {
	// Column i's image base is i*iw; the broadcast words follow.
	next := len(spans) * a.iw
	for i, s := range spans {
		if s.Ta < 1 {
			continue
		}
		k := memKey(s.Pos, s.Ta)
		src, ok := a.mem.get(k)
		if !ok {
			return fmt.Errorf("simulate: analytic image %v unavailable in leaf %v", k, d)
		}
		a.blockCopy(i*a.iw, src, a.iw)
		a.mem.set(k, i*a.iw)
	}
	tmin, tmax := spans[0].Ta, spans[0].Tb
	for _, s := range spans {
		if s.Ta < tmin {
			tmin = s.Ta
		}
		if s.Tb > tmax {
			tmax = s.Tb
		}
	}
	for t := tmin; t <= tmax; t++ { // global (T, X) vertex order
		for i, s := range spans {
			if t < s.Ta || t > s.Tb {
				continue
			}
			x := s.Pos.X
			p := lattice.Point{X: x, T: t}
			if t == 0 {
				// Init vertex: Pokes of the initial image are free; the
				// broadcast value costs one op and one write.
				a.op()
				a.access(next)
				a.bcast.set(p, next)
				next++
				continue
			}
			cellOff := a.prog.Address(x, t, a.m)
			if cellOff >= a.iw {
				return fmt.Errorf("simulate: address %d beyond declared live memory %d", cellOff, a.iw)
			}
			addr := i*a.iw + cellOff
			a.access(addr) // read addressed cell
			// Operand reads in the blocked stencil's order: self, left,
			// right.
			for _, dx := range [3]int{0, -1, 1} {
				qx := x + dx
				if qx < 0 || qx >= a.n {
					continue
				}
				q := lattice.Point{X: qx, T: t - 1}
				qa, ok := a.bcast.get(q)
				if !ok {
					return fmt.Errorf("simulate: analytic operand %v of %v unavailable", q, p)
				}
				a.access(qa)
			}
			a.op()
			a.access(addr) // write updated cell
			a.access(next) // write broadcast word
			a.bcast.set(p, next)
			next++
		}
	}
	if err := a.ec.step(d.Size()); err != nil {
		return err
	}
	for i, s := range spans {
		a.mem.del(memKey(s.Pos, s.Ta))
		a.mem.set(memKey(s.Pos, s.Tb+1), i*a.iw)
	}
	return nil
}

// exec mirrors blockedExec.exec with summed-delta memoization; geo is
// d's geometry, enumerated by the caller's visit.
func (a *analyticExec) exec(d lattice.Diamond, geo dag.Surface, space, depth int) error {
	if a.isLeaf(d) {
		return a.execLeaf(d, geo.Cols)
	}
	stagePtr := space - inSize(&geo, a.iw)
	for len(a.geo) <= depth {
		a.geo = append(a.geo, dag.Surface{})
		a.ovStack = append(a.ovStack, nil)
	}
	for _, kd := range d.Children() {
		kid := kd.(lattice.Diamond)
		if err := a.ec.checkpoint(); err != nil {
			return err
		}
		var key subtreeKey
		var keyOK bool
		var rec *subtreeRecord
		if a.memoOn {
			if key, keyOK = a.keyFor(kid); keyOK {
				if v, ok := memo.load(memoAnalytic, memoLevel(kid.Span()), key); ok {
					rec = v.(*subtreeRecord)
				}
			}
		}
		spanName := "block"
		if rec != nil {
			spanName = "block:replayed"
		}
		sp := a.ec.tr.Start(spanName)
		var vt0 float64
		if sp != nil {
			vt0 = float64(a.meter.Now())
		}
		kg := a.geo[depth]
		a.surface(kid, &kg)
		a.geo[depth] = kg
		kidSpans, kidGin, live := kg.Cols, kg.Pre, kg.Live
		skid := a.spaceNeeded(kid).space

		overrides := a.ovStack[depth][:0]
		dst := skid - inSize(&kg, a.iw)
		if dst < 0 {
			return fmt.Errorf("simulate: analytic child slot underflow in %v", kid)
		}
		for _, s := range kidSpans {
			if s.Ta < 1 {
				continue
			}
			k := memKey(s.Pos, s.Ta)
			src, ok := a.mem.get(k)
			if !ok {
				return fmt.Errorf("simulate: analytic image %v unavailable for %v", k, kid)
			}
			a.blockCopy(dst, src, a.iw)
			overrides = append(overrides, savedAddr{k, src, true})
			a.mem.set(k, dst)
			dst += a.iw
		}
		for _, q := range kidGin {
			src, ok := a.bcast.get(q)
			if !ok {
				return fmt.Errorf("simulate: analytic broadcast %v unavailable for %v", q, kid)
			}
			a.moveWord(dst, src)
			overrides = append(overrides, savedAddr{q, src, false})
			a.bcast.set(q, dst)
			dst++
		}
		a.ovStack[depth] = overrides

		if rec != nil {
			// Replay the whole subtree as one clock/ledger delta and
			// rebind products to their recorded child-frame addresses.
			a.meter.ApplyDelta(rec.dt, &rec.ledger)
			rec.rebind(kidSpans, live, a.mem.set, a.bcast.set)
			a.replayed++
			if err := a.ec.step(kid.Size()); err != nil {
				return err
			}
		} else {
			t0 := a.meter.Now()
			led0 := a.meter.Ledger
			if err := a.exec(kid, kg, skid, depth+1); err != nil {
				return err // no publication on error: no poisoned records
			}
			if keyOK {
				if nr, ok := newSubtreeRecord(subtreeRecord{
					dt: a.meter.Now() - t0, ledger: a.meter.Ledger.Sub(&led0), space: skid,
				}, kidSpans, live, a.mem.get, a.bcast.get); ok {
					memo.store(memoAnalytic, memoLevel(kid.Span()), key, nr)
				}
			}
		}

		for _, s := range kidSpans {
			k := memKey(s.Pos, s.Tb+1)
			src, ok := a.mem.get(k)
			if !ok {
				return fmt.Errorf("simulate: analytic produced image %v missing after %v", k, kid)
			}
			stagePtr -= a.iw
			if stagePtr < skid {
				return fmt.Errorf("simulate: analytic staging underflow in %v", d)
			}
			a.blockCopy(stagePtr, src, a.iw)
			a.mem.set(k, stagePtr)
		}
		for _, v := range live {
			src, ok := a.bcast.get(v)
			if !ok {
				return fmt.Errorf("simulate: analytic live-out %v missing after %v", v, kid)
			}
			stagePtr--
			if stagePtr < skid {
				return fmt.Errorf("simulate: analytic staging underflow in %v", d)
			}
			a.moveWord(stagePtr, src)
			a.bcast.set(v, stagePtr)
		}
		for _, s := range overrides {
			if s.mem {
				a.mem.set(s.p, s.add)
			} else {
				a.bcast.set(s.p, s.add)
			}
		}
		for _, s := range kidSpans {
			if s.Ta >= 1 {
				a.mem.del(memKey(s.Pos, s.Ta))
			}
		}
		// Interior broadcast cleanup intentionally skipped — see the file
		// comment; stale entries are never read again.
		if sp != nil {
			sp.SetAttr("size", float64(kid.Size()))
			sp.SetAttr("vtime", float64(a.meter.Now())-vt0)
			sp.End()
		}
	}
	return nil
}

// BlockedAnalyticD1Context computes the virtual time, ledger and space of
// BlockedContext at d = 1 analytically — no machine state, no guest
// values, memoized subtree replay — making volumes far beyond the exact
// engine's reach tractable.
// Result.Outputs and Result.Memories are nil (there is nothing to verify
// guest-side; validate against the work/span laws instead).
//
// It has the same cancellation and progress contract as
// BlockedContext.
func BlockedAnalyticD1Context(ctx context.Context, n, m, steps, leafWidth int, prog network.Program) (Result, error) {
	if e := validateGuest("blocked-analytic", 1, n, m, steps, 0); e != nil {
		return Result{}, e
	}
	if leafWidth <= 0 {
		leafWidth = m
	}
	if leafWidth < 2 {
		leafWidth = 2
	}
	iw, err := imageWords(prog, m)
	if err != nil {
		return Result{}, err
	}
	var meter cost.Meter
	a := &analyticExec{
		n: n, m: m, iw: iw, steps: steps, leafSpan: leafWidth,
		prog: prog, meter: &meter, fn: hram.Standard(1, m),
		ec:    newExecCtx(ctx),
		bcast: newPointAddrs(n), mem: newPointAddrs(n),
		space: make(map[lattice.Diamond]blockedPlan), classSpace: make(map[subtreeKey]blockedPlan),
		g: dag.NewLineGraph(n, steps+1),
	}
	if memoEnabled(ctx) {
		if _, ok := prog.(addrClasser); ok {
			a.memoOn = true
			a.progFP = progFingerprint(prog)
		}
	}
	root := lattice.DiamondAround(n, steps+1)
	space := a.spaceNeeded(root).space
	var geo dag.Surface
	a.surface(root, &geo)
	if err := a.exec(root, geo, space, 0); err != nil {
		return Result{}, err
	}
	if err := a.ec.flush(); err != nil {
		return Result{}, err
	}
	return Result{
		Time:   meter.Now(),
		Ledger: meter.Ledger,
		Steps:  steps,
		Space:  space,
	}, nil
}
