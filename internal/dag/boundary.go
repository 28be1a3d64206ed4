package dag

import (
	"fmt"
	"math"
	"sort"

	"bsmp/internal/lattice"
)

// This file enumerates a domain's columns, preboundary and live-out set
// in O(surface) rather than O(volume), the bound Proposition 2's
// recursion assumes of the preboundary.
//
// The band argument. A domain's columns (lattice.Domain.At) give each
// spatial position one time interval [ta, tb], and a unit step
// along an axis moves either end by at most one. Every arc of the dags
// here joins (v, t-1) to (v', t) with v' = v or a mesh neighbor of v.
// So a vertex (v, t) with t >= ta(v)+2 has every predecessor inside the
// domain as long as each neighbor v' in the graph holds a non-empty
// column: t-1 >= ta(v)+1 >= ta(v') and t-1 <= tb(v)-1 <= tb(v').
// Mirrored, a vertex with t <= tb(v)-2 has every successor inside. Only
// a column's two lowest layers can see the preboundary and only its two
// highest can be live, except next to an empty or clipped-away neighbor
// column, where the whole column is scanned (an empty neighbor inside
// the clip forces a column of height at most two, so the only columns
// scanned whole in practice are those along a clip narrower than the
// graph). Sorting the band by t, stably over position order, puts it
// in the (T, X, Y, Z) order of a full walk, so the first-encounter
// sequence is the full walk's.

// Surface is one domain's boundary geometry.
type Surface struct {
	// Cols are the domain's non-empty columns, in the order asked for.
	Cols []lattice.Column
	// Pre is Γin(U): the vertices of the graph outside the domain that
	// are predecessors of vertices inside it, in the order a (T, X, Y, Z)
	// walk of the domain first meets them with predecessors taken in
	// Graph.Preds order.
	Pre []lattice.Point
	// Live is the live-out set in (T, X, Y, Z) order: the domain's
	// vertices with a successor outside it, plus its final-layer
	// vertices (t = Steps()-1), the computation's outputs. It is what a
	// simulation must keep when it finishes the domain (the
	// generalization of Proposition 2's "Ui ∩ Γin(Ui+1 ∪ ... ∪ Uq)").
	Live []lattice.Point
}

// EachDead calls fn for every point of pts that is not in s.Live. pts
// must ascend in the order of lattice.Point.Less, (T, X, Y, Z), which is
// s.Live's order too, so the two lists merge: after a binary search for
// pts[0], each step passes one point of either list.
func (s *Surface) EachDead(pts []lattice.Point, fn func(lattice.Point)) {
	if len(pts) == 0 {
		return
	}
	live := s.Live
	i := sort.Search(len(live), func(j int) bool { return !live[j].Less(pts[0]) })
	for _, p := range pts {
		for i < len(live) && live[i].Less(p) {
			i++
		}
		if i < len(live) && live[i] == p {
			i++
			continue
		}
		fn(p)
	}
}

// ColumnOrder selects the order of Surface.Cols.
type ColumnOrder int

const (
	// ByPosition orders columns by (x, y, z).
	ByPosition ColumnOrder = iota
	// ByStart orders columns by (ta, x, y, z): the order in which a
	// (T, X, Y, Z) walk of the domain first meets them.
	ByStart
)

// Boundary holds the scratch of the boundary enumeration. The zero value
// is ready to use. A Boundary serves one goroutine at a time, so each
// executor owns one; nothing in it outlives a call.
type Boundary struct {
	// ta and tb hold the column interval of every position of the
	// domain's position box, grown by one on each mesh axis; tb is
	// offGraph at positions the graph does not have.
	ta, tb []int32
	// at is the table index of each column of Surface.Cols, in
	// position order.
	at []int32
	// stamp[i] == t marks position i's vertex at t-1 as emitted.
	stamp []int32

	// off is the graph's stencil in table offsets (see stencil).
	off [7]int32

	preBand, liveBand, sorted []bandPoint
	counts                    []int
	cols                      []lattice.Column
}

// bandPoint is the vertex of column col (an index into Surface.Cols) at
// time t.
type bandPoint struct{ col, t int32 }

// offGraph marks a table position outside the graph: the stencil never
// reaches it, so it is neither inside nor outside the domain.
const offGraph = math.MinInt32

// Compute fills s with dom's columns (in the given order), preboundary
// and live-out set in g, reusing s's slices. g is a LineGraph,
// MeshGraph or CubeGraph of dom's dimension, and dom lies within g.
// Each list is reserved once before it is filled, so a Surface too small
// for dom grows by one allocation per list, not by append's doublings:
// the columns by the position box's volume, the live-out set by its
// band, which holds every candidate, and the preboundary by its band,
// which it exceeds only on domains a few vertices across.
func (b *Boundary) Compute(g Graph, dom lattice.Domain, order ColumnOrder, s *Surface) {
	s.Cols, s.Pre, s.Live = s.Cols[:0], s.Pre[:0], s.Live[:0]
	box := dom.Box()
	if box.Empty() {
		return
	}
	bounds := g.Bounds()
	// The table: the position box grown by one on each mesh axis, x
	// slowest, so table order is position order.
	var lo, n [3]int
	boxLo := [3]int{box.X0, box.Y0, box.Z0}
	boxHi := [3]int{box.X1, box.Y1, box.Z1}
	for a := range 3 {
		h := 0
		if a < dom.Dim {
			h = 1
		}
		lo[a], n[a] = boxLo[a]-h, boxHi[a]-boxLo[a]+2*h
	}
	stride := [3]int{n[1] * n[2], n[2], 1}
	delta := stencilOf(g, dom.Dim)
	off := b.off[:len(delta)]
	for k, d := range delta {
		off[k] = int32(d[0]*stride[0] + d[1]*stride[1] + d[2]*stride[2])
	}
	size := n[0] * n[1] * n[2]
	b.ta, b.tb = resize(b.ta, size), resize(b.tb, size)
	b.at = b.at[:0]
	s.Cols = resize(s.Cols, (boxHi[0]-boxLo[0])*(boxHi[1]-boxLo[1])*(boxHi[2]-boxLo[2]))[:0]
	i := 0
	for x := lo[0]; x < lo[0]+n[0]; x++ {
		for y := lo[1]; y < lo[1]+n[1]; y++ {
			for z := lo[2]; z < lo[2]+n[2]; z++ {
				if x < bounds.X0 || x >= bounds.X1 || y < bounds.Y0 || y >= bounds.Y1 ||
					z < bounds.Z0 || z >= bounds.Z1 {
					b.ta[i], b.tb[i] = 0, offGraph
				} else {
					ta, tb := dom.At(x, y, z)
					b.ta[i], b.tb[i] = int32(ta), int32(tb)
					if ta <= tb {
						s.Cols = append(s.Cols, lattice.Column{Pos: lattice.Point{X: x, Y: y, Z: z}, Ta: ta, Tb: tb})
						b.at = append(b.at, int32(i))
					}
				}
				i++
			}
		}
	}

	// The bands, column by column in position order.
	b.preBand, b.liveBand = b.preBand[:0], b.liveBand[:0]
	for k, c := range s.Cols {
		lowTop, liveBottom := min(c.Ta+1, c.Tb), max(c.Tb-1, c.Ta)
		if b.bordersGap(b.at[k], off) {
			lowTop, liveBottom = c.Tb, c.Ta
		}
		for t := c.Ta; t <= lowTop; t++ {
			b.preBand = append(b.preBand, bandPoint{int32(k), int32(t)})
		}
		for t := liveBottom; t <= c.Tb; t++ {
			b.liveBand = append(b.liveBand, bandPoint{int32(k), int32(t)})
		}
	}

	// Preboundary: a predecessor (v', t-1) is reached only from layer t,
	// and the sorted band ascends in t, so stamp[v'] == t marks it
	// emitted.
	s.Pre = resize(s.Pre, len(b.preBand))[:0]
	b.stamp = resize(b.stamp, size)
	clear(b.stamp)
	for _, p := range b.sortBand(b.preBand, box.T0, box.T1) {
		if p.t == 0 {
			continue // an input vertex has no predecessors
		}
		c, i, tp := &s.Cols[p.col], b.at[p.col], p.t-1
		for k, o := range off {
			j := i + o
			if tb := b.tb[j]; tb == offGraph || (b.ta[j] <= tp && tp <= tb) || b.stamp[j] == p.t {
				continue
			}
			b.stamp[j] = p.t
			q := c.Pos
			q.X += delta[k][0]
			q.Y += delta[k][1]
			q.Z += delta[k][2]
			q.T = int(tp)
			s.Pre = append(s.Pre, q)
		}
	}

	last := int32(g.Steps() - 1)
	s.Live = resize(s.Live, len(b.liveBand))[:0]
	for _, p := range b.sortBand(b.liveBand, box.T0, box.T1) {
		if p.t != last && !b.leaves(b.at[p.col], p.t+1, off) {
			continue
		}
		q := s.Cols[p.col].Pos
		q.T = int(p.t)
		s.Live = append(s.Live, q)
	}

	if order == ByStart {
		b.sortByStart(s.Cols, box.T0, box.T1)
	}
}

// leaves reports whether a stencil neighbor of table position i is a
// position of the graph whose column does not hold time t.
func (b *Boundary) leaves(i, t int32, off []int32) bool {
	for _, o := range off {
		j := i + o
		if tb := b.tb[j]; tb != offGraph && (t < b.ta[j] || t > tb) {
			return true
		}
	}
	return false
}

// bordersGap reports whether a stencil neighbor of table position i is
// a position of the graph whose column is empty or clipped away.
func (b *Boundary) bordersGap(i int32, off []int32) bool {
	for _, o := range off {
		j := i + o
		if tb := b.tb[j]; tb != offGraph && b.ta[j] > tb {
			return true
		}
	}
	return false
}

// sortBand returns band in ascending t, stable over its position order:
// a counting sort over the domain's time range [t0, t1).
func (b *Boundary) sortBand(band []bandPoint, t0, t1 int) []bandPoint {
	counts := b.tally(t1 - t0)
	for _, p := range band {
		counts[int(p.t)-t0+1]++
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	b.sorted = resize(b.sorted, len(band))
	for _, p := range band {
		b.sorted[counts[int(p.t)-t0]] = p
		counts[int(p.t)-t0]++
	}
	return b.sorted
}

// sortByStart reorders cols in place by ascending Ta, stable over
// position order.
func (b *Boundary) sortByStart(cols []lattice.Column, t0, t1 int) {
	counts := b.tally(t1 - t0)
	for _, c := range cols {
		counts[c.Ta-t0+1]++
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	b.cols = append(b.cols[:0], cols...)
	for _, c := range b.cols {
		cols[counts[c.Ta-t0]] = c
		counts[c.Ta-t0]++
	}
}

// tally returns a zeroed count array for a span of times: counts[k+1]
// tallies t0+k, and its prefix sum turns counts[k] into the first slot
// of t0+k.
func (b *Boundary) tally(span int) []int {
	b.counts = resize(b.counts, span+1)
	clear(b.counts)
	return b.counts
}

// The graphs' arc patterns as position moves, in Graph.Preds order.
var (
	lineDelta = [][3]int{{-1, 0, 0}, {0, 0, 0}, {1, 0, 0}}
	meshDelta = [][3]int{{0, 0, 0}, {-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}}
	cubeDelta = [][3]int{{0, 0, 0}, {-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}
)

// stencilOf returns g's arc pattern; it panics unless g is a LineGraph,
// MeshGraph or CubeGraph of dimension dim.
func stencilOf(g Graph, dim int) [][3]int {
	var delta [][3]int
	gdim := 0
	switch g.(type) {
	case LineGraph:
		delta, gdim = lineDelta, 1
	case MeshGraph:
		delta, gdim = meshDelta, 2
	case CubeGraph:
		delta, gdim = cubeDelta, 3
	}
	if gdim == 0 || gdim != dim {
		panic(fmt.Sprintf("dag: no boundary enumeration for a %d-dimensional domain of %T", dim, g))
	}
	return delta
}

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Preboundary returns Γin(U): the vertices of g outside the domain that
// are predecessors of vertices inside it (Section 3 of the paper), as
// Surface.Pre orders them — the one-shot form of Boundary.Compute. Only
// vertices of g count; stencil positions outside the machine are not
// generated by Preds and never appear.
func Preboundary(g Graph, dom lattice.Domain) []lattice.Point {
	var b Boundary
	var s Surface
	b.Compute(g, dom, ByPosition, &s)
	return s.Pre
}
