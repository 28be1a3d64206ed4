package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/cost"
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
// a diamond's columns, preboundary, and live-out set are all O(width),
// so a memoized run costs O(boundary work + leaf classes), making
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

	space      map[lattice.Diamond]int
	classSpace map[subtreeKey]int

	scr geomScratch
	pts []lattice.Point // spaceNeeded's boundary scratch: only counts are kept

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

func divFloor(p, q int) int {
	r := p / q
	if p%q != 0 && (p < 0) != (q < 0) {
		r--
	}
	return r
}

func divCeil(p, q int) int { return -divFloor(-p, q) }

// dXRange is the half-open x interval of d's columns: the bounding
// x-range of the rotated rectangle intersected with the clip.
func dXRange(d lattice.Diamond) (int, int) {
	x0 := divCeil(d.U0-(d.W0+d.RW-1), 2)
	x1 := divFloor(d.U0+d.RU-1-d.W0, 2) + 1
	if d.Clip.X0 > x0 {
		x0 = d.Clip.X0
	}
	if d.Clip.X1 < x1 {
		x1 = d.Clip.X1
	}
	return x0, x1
}

// dTa / dTb are column x's first and last vertex times: the (u, w)
// range constraints u = t+x in [U0, U0+RU) and w = t-x in [W0, W0+RW)
// solved for t, clamped to the clip's time range. The column is a
// contiguous interval — every integer (x, t) in range is a lattice
// point (u + w = 2t carries no parity constraint on (x, t)) — which is
// what makes all geometry here O(width) instead of O(volume).
func dTa(d lattice.Diamond, x int) int {
	ta := d.U0 - x
	if w := d.W0 + x; w > ta {
		ta = w
	}
	if d.Clip.T0 > ta {
		ta = d.Clip.T0
	}
	return ta
}

func dTb(d lattice.Diamond, x int) int {
	tb := d.U0 + d.RU - 1 - x
	if w := d.W0 + d.RW - 1 + x; w < tb {
		tb = w
	}
	if d.Clip.T1-1 < tb {
		tb = d.Clip.T1 - 1
	}
	return tb
}

// analyticColumns is b.columns for a diamond in O(width): the per-node
// time spans in ascending x (the d = 1 column order).
func analyticColumns(d lattice.Diamond) []colSpan {
	x0, x1 := dXRange(d)
	spans := make([]colSpan, 0, x1-x0)
	for x := x0; x < x1; x++ {
		ta, tb := dTa(d, x), dTb(d, x)
		if ta > tb {
			continue
		}
		spans = append(spans, colSpan{pos: lattice.Point{X: x}, ta: ta, tb: tb})
	}
	return spans
}

// analyticHasAt reports whether (x, t) is a vertex of d.
func analyticHasAt(d lattice.Diamond, x, t int) bool {
	if x < d.Clip.X0 || x >= d.Clip.X1 {
		return false
	}
	ta, tb := dTa(d, x), dTb(d, x)
	return ta <= t && t <= tb
}

// bandPoint is one vertex (x, t) of a boundary band.
type bandPoint struct{ x, t int }

// geomScratch holds the buffers the O(width) boundary enumerations reuse
// from one domain to the next; nothing in it outlives a call.
type geomScratch struct {
	band, sorted []bandPoint
	counts       []int
	stamp        []int
}

// sortBand returns s.band, built column by column in ascending x, in
// global (T, X) vertex order: a stable counting sort on t, O(len + t
// range). A column's first (last) time moves by at most one from one
// column to the next, so the t range is O(width) as well.
func (s *geomScratch) sortBand() []bandPoint {
	band := s.band
	if len(band) == 0 {
		return band
	}
	lo, hi := band[0].t, band[0].t
	for _, p := range band[1:] {
		lo, hi = min(lo, p.t), max(hi, p.t)
	}
	// counts[k+1] tallies t = lo+k; the prefix sum turns counts[k] into
	// the first output slot of t = lo+k.
	counts := append(s.counts[:0], make([]int, hi-lo+2)...)
	for _, p := range band {
		counts[p.t-lo+1]++
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	sorted := append(s.sorted[:0], band...)
	for _, p := range band {
		sorted[counts[p.t-lo]] = p
		counts[p.t-lo]++
	}
	s.counts, s.sorted = counts, sorted
	return sorted
}

// preboundary appends dag.Preboundary(LineGraph(n, ·), d) to dst
// exactly — same points, same first-encounter order — in O(width), given
// d's columns. Only vertices with t <= ta(x)+1 can have predecessors
// outside the domain: a vertex at t >= ta(x)+2 has all three preds at
// t-1 >= ta(x)+1 inside (|ta(x±1) - ta(x)| <= 1 and t-1 <= tb(x)-1 <=
// tb(x±1); an empty adjacent column occurs only at diamond tips, whose
// columns have height <= 2 and are inside the band anyway, or at the
// machine edge, where the pred is outside the graph). The band is
// enumerated in global (T, X) vertex order with predecessors in
// LineGraph.Preds order (left, self, right), reproducing the exact
// first-encounter sequence.
func (s *geomScratch) preboundary(dst []lattice.Point, d lattice.Diamond, spans []colSpan, n int) []lattice.Point {
	if len(spans) == 0 {
		return dst
	}
	s.band = s.band[:0]
	for _, c := range spans {
		for t := c.ta; t <= min(c.ta+1, c.tb); t++ {
			s.band = append(s.band, bandPoint{c.pos.X, t})
		}
	}
	// A predecessor (x, t-1) is reached only from band layer t, and the
	// layers ascend, so stamp[x-x0] == t marks it emitted: one slot per
	// column from the left neighbor of the first to the right neighbor
	// of the last.
	x0 := spans[0].pos.X - 1
	stamp := append(s.stamp[:0], make([]int, spans[len(spans)-1].pos.X-x0+2)...)
	s.stamp = stamp
	for _, p := range s.sortBand() {
		if p.t == 0 {
			continue // no predecessors in the graph
		}
		for _, dx := range [3]int{-1, 0, 1} { // LineGraph.Preds order
			x := p.x + dx
			if x < 0 || x >= n || analyticHasAt(d, x, p.t-1) || stamp[x-x0] == p.t {
				continue
			}
			stamp[x-x0] = p.t
			dst = append(dst, lattice.Point{X: x, T: p.t - 1})
		}
	}
	return dst
}

// liveOut appends dag.LiveOut(LineGraph(n, steps+1), d) to dst exactly
// in O(width), given d's columns. Only vertices with t >= tb(x)-1 can
// have a successor outside the domain (the mirror of the preboundary
// band argument), and the final layer t = steps is always live.
func (s *geomScratch) liveOut(dst []lattice.Point, d lattice.Diamond, spans []colSpan, n, steps int) []lattice.Point {
	s.band = s.band[:0]
	for _, c := range spans {
		for t := max(c.tb-1, c.ta); t <= c.tb; t++ {
			s.band = append(s.band, bandPoint{c.pos.X, t})
		}
	}
	for _, p := range s.sortBand() {
		if p.t == steps {
			dst = append(dst, lattice.Point{X: p.x, T: p.t})
			continue
		}
		for _, dx := range [3]int{-1, 0, 1} { // LineGraph.Succs order
			x := p.x + dx
			if x >= 0 && x < n && !analyticHasAt(d, x, p.t+1) {
				dst = append(dst, lattice.Point{X: p.x, T: p.t})
				break
			}
		}
	}
	return dst
}

// analyticPreboundary is dag.Preboundary(LineGraph(n, ·), d) in
// O(width); see geomScratch.preboundary.
func analyticPreboundary(d lattice.Diamond, n int) []lattice.Point {
	var s geomScratch
	return s.preboundary(nil, d, analyticColumns(d), n)
}

// analyticLiveOut is dag.LiveOut(LineGraph(n, steps+1), d) in O(width);
// see geomScratch.liveOut.
func analyticLiveOut(d lattice.Diamond, n, steps int) []lattice.Point {
	var s geomScratch
	return s.liveOut(nil, d, analyticColumns(d), n, steps)
}

// diamondGeom is the geometry one visit of a domain needs: its columns,
// preboundary and live-out set, each computed once.
type diamondGeom struct {
	cols      []colSpan
	pre, live []lattice.Point
}

func (a *analyticExec) geom(d lattice.Diamond) diamondGeom {
	cols := analyticColumns(d)
	return diamondGeom{
		cols: cols,
		pre:  a.scr.preboundary(nil, d, cols, a.n),
		live: a.scr.liveOut(nil, d, cols, a.n, a.steps),
	}
}

func (a *analyticExec) isLeaf(d lattice.Diamond) bool {
	return d.Span() <= a.leafSpan || d.Children() == nil
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
func (a *analyticExec) spaceNeeded(d lattice.Diamond) int {
	if s, ok := a.space[d]; ok {
		return s
	}
	var key subtreeKey
	var keyOK bool
	if a.memoOn {
		if key, keyOK = a.keyFor(d); keyOK {
			if s, ok := a.classSpace[key]; ok {
				a.space[d] = s
				return s
			}
		}
	}
	spans := analyticColumns(d)
	a.pts = a.scr.preboundary(a.pts[:0], d, spans, a.n)
	in := len(a.pts) + a.iw*memInCount(spans)
	var out int
	if a.isLeaf(d) {
		out = len(spans)*a.iw + d.Size() + in
	} else {
		smax, stage := 0, 0
		for _, kd := range d.Children() {
			kid := kd.(lattice.Diamond)
			smax = max(smax, a.spaceNeeded(kid))
			kidSpans := analyticColumns(kid)
			a.pts = a.scr.liveOut(a.pts[:0], kid, kidSpans, a.n, a.steps)
			stage += len(a.pts) + a.iw*len(kidSpans)
		}
		out = smax + stage + in
	}
	a.space[d] = out
	if keyOK {
		a.classSpace[key] = out
	}
	return out
}

// execLeaf mirrors blockedExec.execLeaf charge for charge: image bases
// at the bottom of the workspace, vertices in global (T, X) order, one
// Op per vertex, reads of the addressed cell and the (self, left, right)
// operands, writes of the updated cell and the broadcast word. prog.Init
// and prog.Step are never called — charges are value-independent.
func (a *analyticExec) execLeaf(d lattice.Diamond, spans []colSpan) error {
	// Column i's image base is i*iw; the broadcast words follow.
	next := len(spans) * a.iw
	for i, s := range spans {
		if s.ta < 1 {
			continue
		}
		k := memKey(s.pos, s.ta)
		src, ok := a.mem.get(k)
		if !ok {
			return fmt.Errorf("simulate: analytic image %v unavailable in leaf %v", k, d)
		}
		a.blockCopy(i*a.iw, src, a.iw)
		a.mem.set(k, i*a.iw)
	}
	tmin, tmax := spans[0].ta, spans[0].tb
	for _, s := range spans {
		if s.ta < tmin {
			tmin = s.ta
		}
		if s.tb > tmax {
			tmax = s.tb
		}
	}
	for t := tmin; t <= tmax; t++ { // global (T, X) vertex order
		for i, s := range spans {
			if t < s.ta || t > s.tb {
				continue
			}
			x := s.pos.X
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
		a.mem.del(memKey(s.pos, s.ta))
		a.mem.set(memKey(s.pos, s.tb+1), i*a.iw)
	}
	return nil
}

// exec mirrors blockedExec.exec with summed-delta memoization; g is d's
// geometry, computed by the caller's visit.
func (a *analyticExec) exec(d lattice.Diamond, g diamondGeom, space int) error {
	if a.isLeaf(d) {
		return a.execLeaf(d, g.cols)
	}
	stagePtr := space - (len(g.pre) + a.iw*memInCount(g.cols))
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
		kg := a.geom(kid)
		kidSpans, kidGin, live := kg.cols, kg.pre, kg.live
		skid := a.spaceNeeded(kid)

		var overrides []savedAddr
		dst := skid - (len(kidGin) + a.iw*memInCount(kidSpans))
		if dst < 0 {
			return fmt.Errorf("simulate: analytic child slot underflow in %v", kid)
		}
		for _, s := range kidSpans {
			if s.ta < 1 {
				continue
			}
			k := memKey(s.pos, s.ta)
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

		if rec != nil {
			// Replay the whole subtree as one clock/ledger delta and
			// rebind products to their recorded child-frame addresses.
			a.meter.ApplyDelta(rec.dt, &rec.ledger)
			for i, s := range kidSpans {
				a.mem.set(memKey(s.pos, s.tb+1), rec.imgAddrs[i])
			}
			for i, v := range live {
				a.bcast.set(v, rec.outAddrs[i])
			}
			a.replayed++
			if err := a.ec.step(kid.Size()); err != nil {
				return err
			}
		} else {
			t0 := a.meter.Now()
			led0 := a.meter.Ledger
			if err := a.exec(kid, kg, skid); err != nil {
				return err // no publication on error: no poisoned records
			}
			if keyOK {
				nr := &subtreeRecord{
					dt: a.meter.Now() - t0, ledger: a.meter.Ledger.Sub(&led0),
					space:    skid,
					imgAddrs: make([]int, len(kidSpans)), outAddrs: make([]int, len(live)),
				}
				okAll := true
				for i, s := range kidSpans {
					addr, ok := a.mem.get(memKey(s.pos, s.tb+1))
					if !ok {
						okAll = false
						break
					}
					nr.imgAddrs[i] = addr
				}
				for i, v := range live {
					addr, ok := a.bcast.get(v)
					if !ok {
						okAll = false
						break
					}
					nr.outAddrs[i] = addr
				}
				if okAll {
					memo.store(memoAnalytic, memoLevel(kid.Span()), key, nr)
				}
			}
		}

		for _, s := range kidSpans {
			k := memKey(s.pos, s.tb+1)
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
			if s.ta >= 1 {
				a.mem.del(memKey(s.pos, s.ta))
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
		space: make(map[lattice.Diamond]int), classSpace: make(map[subtreeKey]int),
	}
	if memoEnabled(ctx) {
		if _, ok := prog.(addrClasser); ok {
			a.memoOn = true
			a.progFP = progFingerprint(prog)
		}
	}
	root := lattice.DiamondAround(n, steps+1)
	space := a.spaceNeeded(root)
	if err := a.exec(root, a.geom(root), space); err != nil {
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
