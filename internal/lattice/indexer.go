package lattice

import "fmt"

// Indexer is a bijection between the lattice points of a finite
// axis-aligned box and the dense range [0, Len()). It is the address
// arithmetic behind the executors' flat location tables: where the seed
// implementation hashed every Point into a map on the innermost loops,
// Index and Deindex are a handful of integer operations, and the backing
// arrays they address are allocated once per execution and reused across
// every recursion level.
//
// Indices ascend in (T, Z, Y, X) order: consecutive X values are adjacent,
// one time layer occupies one contiguous block. Either coordinate order
// would do for a bijection; this one keeps a domain's Points enumeration
// (ascending (T, X, Y)) within one layer-sized window of the table, which
// is as cache-friendly as the access pattern allows.
type Indexer struct {
	x0, y0, z0, t0 int
	nx, ny, nz, nt int
}

// NewIndexer returns the Indexer of the given box. The box must be
// bounded and small enough that its volume fits in an int; use
// Domain.BoundingClip to derive a tight finite box from a domain.
func NewIndexer(c Clip) Indexer {
	if c.Empty() {
		return Indexer{}
	}
	return Indexer{
		x0: c.X0, y0: c.Y0, z0: c.Z0, t0: c.T0,
		nx: c.X1 - c.X0, ny: c.Y1 - c.Y0, nz: c.Z1 - c.Z0, nt: c.T1 - c.T0,
	}
}

// IndexerFor returns the Indexer of the domain's bounding box: an O(1)
// Point<->int bijection covering every point of the domain.
func IndexerFor(dom Domain) Indexer { return NewIndexer(dom.BoundingClip()) }

// Len reports the number of lattice points the Indexer covers.
func (ix Indexer) Len() int { return ix.nx * ix.ny * ix.nz * ix.nt }

// Bounds reports the covered box.
func (ix Indexer) Bounds() Clip {
	return Clip{
		X0: ix.x0, X1: ix.x0 + ix.nx,
		Y0: ix.y0, Y1: ix.y0 + ix.ny,
		Z0: ix.z0, Z1: ix.z0 + ix.nz,
		T0: ix.t0, T1: ix.t0 + ix.nt,
	}
}

// Contains reports whether p lies inside the covered box.
func (ix Indexer) Contains(p Point) bool {
	x, y, z, t := p.X-ix.x0, p.Y-ix.y0, p.Z-ix.z0, p.T-ix.t0
	return x >= 0 && x < ix.nx && y >= 0 && y < ix.ny &&
		z >= 0 && z < ix.nz && t >= 0 && t < ix.nt
}

// Index maps a point of the covered box to its dense index. The caller
// must ensure Contains(p); out-of-box points yield indices that collide
// with in-box ones or fall outside [0, Len()).
func (ix Indexer) Index(p Point) int {
	return (((p.T-ix.t0)*ix.nz+(p.Z-ix.z0))*ix.ny+(p.Y-ix.y0))*ix.nx + (p.X - ix.x0)
}

// Deindex inverts Index.
func (ix Indexer) Deindex(i int) Point {
	x := i%ix.nx + ix.x0
	i /= ix.nx
	y := i%ix.ny + ix.y0
	i /= ix.ny
	z := i%ix.nz + ix.z0
	return Point{X: x, Y: y, Z: z, T: i/ix.nz + ix.t0}
}

// Intersect returns the box common to c and o.
func (c Clip) Intersect(o Clip) Clip {
	return Clip{
		X0: max(c.X0, o.X0), X1: min(c.X1, o.X1),
		Y0: max(c.Y0, o.Y0), Y1: min(c.Y1, o.Y1),
		Z0: max(c.Z0, o.Z0), Z1: min(c.Z1, o.Z1),
		T0: max(c.T0, o.T0), T1: min(c.T1, o.T1),
	}
}

// denseSlots is the largest box an AddrTable backs with a dense slot
// array: 2²⁴ points, 64 MiB of int32 slots. A larger box gets a map keyed
// by the same index, so its cost follows the entries held, not the
// box's volume.
const denseSlots = 1 << 24

// AddrTable is a Point -> address table over an Indexer's box: the
// executors' location tables. Up to denseSlots points it is a flat int32
// array indexed by Indexer.Index, absent entries the sentinel -1; above
// that, a map keyed by the same index. Addresses must fit int32 (machine
// sizes here are far below 2³¹ words). The zero value is unusable;
// allocate with NewAddrTable and reuse via Reset.
type AddrTable struct {
	ix     Indexer
	slots  []int32
	sparse map[int]int32 // non-nil exactly when the box exceeds denseSlots
}

// NewAddrTable returns an empty table covering ix's box.
func NewAddrTable(ix Indexer) *AddrTable {
	t := &AddrTable{}
	t.Reset(ix)
	return t
}

// Indexer reports the table's index mapping.
func (t *AddrTable) Indexer() Indexer { return t.ix }

// Reset clears the table and re-targets it to ix's box, reusing the
// backing array when the new box is dense and fits.
func (t *AddrTable) Reset(ix Indexer) {
	t.ix = ix
	n := ix.Len()
	if n > denseSlots {
		t.slots, t.sparse = nil, make(map[int]int32)
		return
	}
	t.sparse = nil
	if n <= cap(t.slots) {
		t.slots = t.slots[:n]
	} else {
		t.slots = make([]int32, n)
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
}

// Get returns the address stored for p, if any. The map lookup is a
// runtime call, so the dense path stays inlinable.
func (t *AddrTable) Get(p Point) (int, bool) {
	i := t.ix.Index(p)
	if t.sparse != nil {
		a, ok := t.sparse[i]
		return int(a), ok
	}
	a := t.slots[i]
	return int(a), a >= 0
}

// Set stores addr for p. addr must be non-negative.
func (t *AddrTable) Set(p Point, addr int) {
	if addr < 0 || int64(addr) > 1<<31-1 {
		panic(fmt.Sprintf("lattice: address %d out of int32 range", addr))
	}
	i := t.ix.Index(p)
	if t.sparse != nil {
		t.sparse[i] = int32(addr)
		return
	}
	t.slots[i] = int32(addr)
}

// Delete removes p's entry.
func (t *AddrTable) Delete(p Point) {
	i := t.ix.Index(p)
	if t.sparse != nil {
		delete(t.sparse, i)
		return
	}
	t.slots[i] = -1
}
