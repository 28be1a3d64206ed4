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

// traceItem is one run-length-encoded charge run, or a link to a nested
// pre-recorded trace.
type traceItem struct {
	cat   Category
	dt    Time
	n     int64  // run length; consecutive identical charges merge
	child *Trace // when non-nil, a nested trace played in place
}

// Trace is an immutable recorded charge sequence. The zero value is an
// empty trace.
type Trace struct {
	items []traceItem
}

// Events reports the number of charges the trace replays, including
// nested children.
func (t *Trace) Events() int64 {
	var n int64
	for _, it := range t.items {
		if it.child != nil {
			n += it.child.Events()
		} else {
			n += it.n
		}
	}
	return n
}

// Play re-applies the recorded charge sequence to m: the same floats in
// the same order the original interval charged, so m's clock and ledger
// advance bit-identically to the original execution. Play bypasses m's
// tap — a replaying engine links the trace into any outer recording
// explicitly (Recorder.Child) instead of re-flattening it event by event.
func (t *Trace) Play(m *Meter) {
	for _, it := range t.items {
		if it.child != nil {
			it.child.Play(m)
			continue
		}
		for k := int64(0); k < it.n; k++ {
			m.Advance(it.dt)
			m.Add(it.cat, it.dt)
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
	items := r.t.items
	if k := len(items) - 1; k >= 0 && items[k].child == nil && items[k].cat == cat && items[k].dt == dt {
		items[k].n++
		return
	}
	r.t.items = append(r.t.items, traceItem{cat: cat, dt: dt, n: 1})
}

// Child links a nested pre-recorded trace at the current position: Play
// descends into it in place.
func (r *Recorder) Child(c *Trace) {
	r.t.items = append(r.t.items, traceItem{child: c})
}

// Trace returns the recorded trace. The recorder must not record further
// after Trace is taken; the returned trace is shared, not copied, but its
// runs are first moved to an exactly sized array, so a trace a memo keeps
// holds none of the append slack recording left behind.
func (r *Recorder) Trace() *Trace {
	r.t.items = slices.Clone(r.t.items)
	return &r.t
}
