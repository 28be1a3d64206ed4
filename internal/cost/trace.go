package cost

import "slices"

// This file is the exact-replay substrate of the subtree memoization in
// internal/simulate: a Trace records the precise charge sequence a meter
// saw over an interval (via the Meter tap), and Play re-applies the same
// floats in the same order. Because float addition is not associative,
// replaying per-event values — rather than one summed delta — is what
// keeps memo-on virtual times bit-identical to memo-off runs.
//
// Traces are hierarchical: when a recorded subtree itself replays an
// inner memoized subtree, the inner record's trace is linked as a child
// rather than re-flattened, so recording N nested levels costs O(own
// events) per level instead of O(subtree) and records share structure.
//
// Layout: a trace is a sequence of entries, each a charge run or a child
// link. Every entry spends one tag byte; a charge run adds its float64.
// Nearly every run is a single charge with no child, so run lengths
// above 1 and child links live in side arrays that only the rare
// entries index, consumed in entry order: about 9 bytes per run, and
// only the child array holds pointers the collector must scan.

// Tag bits: the category in the low bits, plus one flag each for a run
// longer than one charge (its length is the next ns entry) and for a
// child link (the next kids entry; a child spends no float).
const (
	tagCat   = 0x07
	tagRun   = 0x40
	tagChild = 0x80
)

// Trace is an immutable recorded charge sequence. The zero value is an
// empty trace.
type Trace struct {
	tags []uint8  // one per entry
	dts  []Time   // one per charge run
	ns   []int64  // the length of each tagRun run
	kids []*Trace // the trace of each tagChild entry
}

// Events reports the number of charges the trace replays, including
// nested children.
func (t *Trace) Events() int64 {
	n := int64(len(t.dts) - len(t.ns))
	for _, k := range t.ns {
		n += k
	}
	for _, c := range t.kids {
		n += c.Events()
	}
	return n
}

// Play re-applies the recorded charge sequence to m: the same floats in
// the same order the original interval charged, so m's clock and ledger
// advance bit-identically to the original execution. Play bypasses m's
// tap — a replaying engine links the trace into any outer recording
// explicitly (Recorder.Child) instead of re-flattening it event by event.
func (t *Trace) Play(m *Meter) {
	dts, ns, kids := t.dts, t.ns, t.kids
	for _, tag := range t.tags {
		if tag&tagChild != 0 {
			kids[0].Play(m)
			kids = kids[1:]
			continue
		}
		cat, dt := Category(tag&tagCat), dts[0]
		dts = dts[1:]
		n := int64(1)
		if tag&tagRun != 0 {
			n, ns = ns[0], ns[1:]
		}
		for ; n > 0; n-- {
			m.Advance(dt)
			m.Add(cat, dt)
		}
	}
}

// Recorder accumulates a Trace from a stream of observed charges.
// Consecutive identical (category, value) charges are run-length merged,
// which collapses the homogeneous inner loops of the simulators (block
// copies, leaf vertex sweeps) to a handful of runs.
type Recorder struct {
	t Trace
}

// Record appends one observed charge.
func (r *Recorder) Record(cat Category, dt Time) {
	t := &r.t
	if k := len(t.tags) - 1; k >= 0 {
		tag := t.tags[k]
		if tag&tagChild == 0 && Category(tag&tagCat) == cat && t.dts[len(t.dts)-1] == dt {
			if tag&tagRun == 0 {
				t.tags[k] |= tagRun
				t.ns = append(t.ns, 2)
			} else {
				t.ns[len(t.ns)-1]++
			}
			return
		}
	}
	t.tags = append(t.tags, uint8(cat))
	t.dts = append(t.dts, dt)
}

// Child links a nested pre-recorded trace at the current position: Play
// descends into it in place.
func (r *Recorder) Child(c *Trace) {
	r.t.tags = append(r.t.tags, tagChild)
	r.t.kids = append(r.t.kids, c)
}

// Trace returns the recorded trace. The recorder must not record further
// after Trace is taken; the returned trace is shared, not copied, but its
// arrays are first moved to exactly sized ones, so a trace a memo keeps
// holds none of the append slack recording left behind.
func (r *Recorder) Trace() *Trace {
	t := &r.t
	t.tags, t.dts = slices.Clone(t.tags), slices.Clone(t.dts)
	t.ns, t.kids = slices.Clone(t.ns), slices.Clone(t.kids)
	return t
}
