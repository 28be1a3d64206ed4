// Package cost implements the virtual-time accounting substrate for the
// bounded-speed message-propagation model of Bilardi & Preparata (SPAA 1995).
//
// Every machine model in this repository (H-RAMs, linear arrays, meshes)
// charges its activity into a Meter: memory accesses charge the H-RAM access
// function f(x), messages charge their geometric travel distance, and local
// operations charge unit time. The theorems of the paper bound exactly this
// virtual time, so "measured time" throughout the repository means the value
// accumulated here — never wall-clock time.
//
// The package provides three layers:
//
//   - Clock: a single monotone virtual-time line.
//   - Ledger: categorized cost totals (compute, access, transfer, message,
//     sync), useful to attribute slowdown to the mechanisms the paper
//     distinguishes (parallelism loss vs. locality loss).
//   - Meter: a Clock plus a Ledger, the unit handed to machine models.
//   - Bank: a set of per-processor Meters with synchronization primitives
//     (barriers, point-to-point message timing) for multiprocessor models.
package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Time is virtual time in model units. The unit is the execution time of a
// RAM instruction touching address 0, which is also the time for a signal to
// travel a unit of distance (the paper's normalization, Section 2).
type Time = float64

// Category labels a kind of charged activity. Categories do not affect the
// clock; they only attribute totals in the Ledger.
type Category int

const (
	// Compute is local operation time (one unit per dag vertex executed,
	// or per machine instruction).
	Compute Category = iota
	// Access is H-RAM memory access latency, f(x) per touched address x.
	Access
	// Transfer is block data relocation within a memory hierarchy
	// (the divide-and-conquer copy phases of Proposition 2).
	Transfer
	// Message is interprocessor communication time, proportional to the
	// geometric distance between source and destination.
	Message
	// Sync is time spent idle waiting at barriers or for messages.
	Sync
	numCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case Access:
		return "access"
	case Transfer:
		return "transfer"
	case Message:
		return "message"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Categories lists all valid categories in order.
func Categories() []Category {
	return []Category{Compute, Access, Transfer, Message, Sync}
}

// Clock is a monotone virtual-time line. The zero value is a clock at time 0.
type Clock struct {
	now Time
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by dt. It panics if dt is negative or NaN,
// since a negative charge would silently corrupt every derived measurement.
func (c *Clock) Advance(dt Time) {
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("cost: negative or NaN advance %v", dt))
	}
	c.now += dt
}

// WaitUntil moves the clock forward to time t if t is in the future, and
// reports the idle time spent (0 if t is not in the future).
func (c *Clock) WaitUntil(t Time) Time {
	if t <= c.now {
		return 0
	}
	idle := t - c.now
	c.now = t
	return idle
}

// Reset returns the clock to time 0.
func (c *Clock) Reset() { c.now = 0 }

// Ledger accumulates charged time by category. The zero value is ready to use.
type Ledger struct {
	totals [numCategories]Time
	counts [numCategories]int64
}

// Add records dt time units under category cat.
func (l *Ledger) Add(cat Category, dt Time) {
	if cat < 0 || cat >= numCategories {
		panic(fmt.Sprintf("cost: invalid category %d", int(cat)))
	}
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("cost: negative or NaN charge %v", dt))
	}
	l.totals[cat] += dt
	l.counts[cat]++
}

// Total reports the accumulated time under category cat.
func (l *Ledger) Total(cat Category) Time { return l.totals[cat] }

// Count reports the number of charges recorded under category cat.
func (l *Ledger) Count(cat Category) int64 { return l.counts[cat] }

// Sum reports the accumulated time across all categories.
func (l *Ledger) Sum() Time {
	var s Time
	for _, t := range l.totals {
		s += t
	}
	return s
}

// Sub returns the per-category difference l - prev: the charges
// accumulated since prev was snapshotted. Observability code uses it to
// annotate a span with the ledger delta of the interval it covers; it
// reads both ledgers and touches neither.
func (l *Ledger) Sub(prev *Ledger) Ledger {
	var out Ledger
	for i := range l.totals {
		out.totals[i] = l.totals[i] - prev.totals[i]
		out.counts[i] = l.counts[i] - prev.counts[i]
	}
	return out
}

// Reset zeroes all totals and counts.
func (l *Ledger) Reset() {
	l.totals = [numCategories]Time{}
	l.counts = [numCategories]int64{}
}

// Merge adds every total and count of other into l.
func (l *Ledger) Merge(other *Ledger) {
	for i := range l.totals {
		l.totals[i] += other.totals[i]
		l.counts[i] += other.counts[i]
	}
}

// String formats the non-zero ledger entries, largest first.
func (l *Ledger) String() string {
	type row struct {
		cat Category
		t   Time
	}
	var rows []row
	for _, c := range Categories() {
		if l.totals[c] != 0 {
			rows = append(rows, row{c, l.totals[c]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].t > rows[j].t })
	var b strings.Builder
	for i, r := range rows {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.6g", r.cat, r.t)
	}
	if b.Len() == 0 {
		return "empty"
	}
	return b.String()
}

// Meter combines a Clock with a Ledger: a single processor's time line with
// attribution. The zero value is ready to use.
type Meter struct {
	Clock
	Ledger
	// tap, when set, observes every Charge/ChargeN with the exact float
	// added to the clock. Idle is not tapped: an idle span is a
	// WaitUntil difference, which is not replayable as an additive
	// charge (now + (t - now) need not equal t in floats). The engines
	// that record traces never Idle on a tapped meter.
	tap func(Category, Time)
}

// SetTap installs (or clears, with nil) the charge observer. The tap sees
// the exact value added by each Charge/ChargeN, after it is applied.
func (m *Meter) SetTap(tap func(Category, Time)) { m.tap = tap }

// Charge advances the clock by dt and records it under cat.
func (m *Meter) Charge(cat Category, dt Time) {
	m.Advance(dt)
	m.Add(cat, dt)
	if m.tap != nil {
		m.tap(cat, dt)
	}
}

// ChargeN advances the clock by n*dt and records it under cat as one entry.
// It is equivalent to n Charge calls but counts once; use it for homogeneous
// bulk activity (e.g. streaming n words).
func (m *Meter) ChargeN(cat Category, n int64, dt Time) {
	if n < 0 {
		panic("cost: negative charge count")
	}
	total := Time(n) * dt
	m.Advance(total)
	m.Add(cat, total)
	if m.tap != nil {
		m.tap(cat, total)
	}
}

// ApplyDelta advances the clock by dt and merges delta into the ledger —
// the analytic replay of a previously captured interval: dt is a Now()
// difference and delta a Ledger.Sub snapshot of the same interval. Unlike
// Charge it adds whole-interval sums, so totals match the original up to
// float regrouping; use Trace.Play when bit-identity is required.
func (m *Meter) ApplyDelta(dt Time, delta *Ledger) {
	m.Advance(dt)
	m.Ledger.Merge(delta)
}

// Idle advances the clock to time t (if in the future) and records the idle
// span under Sync.
func (m *Meter) Idle(t Time) {
	if idle := m.WaitUntil(t); idle > 0 {
		m.Add(Sync, idle)
	}
}

// Reset returns the meter to time zero with an empty ledger.
func (m *Meter) Reset() {
	m.Clock.Reset()
	m.Ledger.Reset()
}

// Canonical phase names used by the multiprocessor simulations. A Bank
// accepts any string as a phase name; these four are the Theorem 4 /
// Theorem 1 schedule that every MultiResult reports.
const (
	// PhaseRearrange is the one-time π = π2·π1 memory rearrangement.
	PhaseRearrange = "rearrange"
	// PhaseRegime1 is the level-by-level data relocation of Regime 1.
	PhaseRegime1 = "regime1"
	// PhaseRegime2Exec is the kernel-execution part of Regime 2.
	PhaseRegime2Exec = "regime2-exec"
	// PhaseRegime2Exchange is the face/boundary exchange part of Regime 2.
	PhaseRegime2Exchange = "regime2-exchange"
)

// PhaseEntry is one named phase of a Bank's history: how much makespan it
// consumed and the merged ledger of everything charged while it was open.
type PhaseEntry struct {
	Name string
	// Time is the makespan advance (MaxNow delta) attributable to the
	// phase, summed over every interval during which it was open.
	Time Time
	// Ledger is the merged per-category charge delta across all
	// processors during the phase.
	Ledger Ledger
}

// PhaseBreakdown is a Bank's per-phase attribution, in first-open order
// with same-named intervals merged. Entry Times telescope: their sum
// equals the final makespan up to float-summation reordering (each entry
// is a difference of makespan snapshots).
type PhaseBreakdown []PhaseEntry

// Time reports the makespan attributed to the named phase (0 if absent).
func (pb PhaseBreakdown) Time(name string) Time {
	for _, e := range pb {
		if e.Name == name {
			return e.Time
		}
	}
	return 0
}

// Total reports the summed makespan across all phases — the Bank's final
// makespan, up to float-summation grouping.
func (pb PhaseBreakdown) Total() Time {
	var s Time
	for _, e := range pb {
		s += e.Time
	}
	return s
}

// String formats the breakdown as "name=time ..." in phase order.
func (pb PhaseBreakdown) String() string {
	if len(pb) == 0 {
		return "empty"
	}
	var b strings.Builder
	for i, e := range pb {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.6g", e.Name, e.Time)
	}
	return b.String()
}

// phaseMark snapshots the bank state at the instant a phase was opened.
type phaseMark struct {
	name string
	at   Time
	led  Ledger
}

// Bank is a set of per-processor Meters evolving on independent time lines,
// joined at synchronization points. It models a p-node machine where node
// clocks advance independently between communication events.
type Bank struct {
	meters []Meter
	marks  []phaseMark

	// dm, when set, stretches distance-proportional charges
	// (ChargeDelayed) by bounded per-charge factors; nil is the lockstep
	// machine. delaySeq holds the per-processor draw counters the model
	// is keyed on.
	dm       *ThetaModel
	delaySeq []uint64
}

// NewBank creates a bank of p meters, all at time 0. It panics if p < 1.
func NewBank(p int) *Bank {
	if p < 1 {
		panic(fmt.Sprintf("cost: bank size %d < 1", p))
	}
	return &Bank{meters: make([]Meter, p)}
}

// Size reports the number of processors in the bank.
func (b *Bank) Size() int { return len(b.meters) }

// Proc returns the meter of processor i.
func (b *Bank) Proc(i int) *Meter { return &b.meters[i] }

// MaxNow reports the latest clock among all processors — the machine's
// completion time (makespan).
func (b *Bank) MaxNow() Time {
	var mx Time
	for i := range b.meters {
		if t := b.meters[i].Now(); t > mx {
			mx = t
		}
	}
	return mx
}

// MinNow reports the earliest clock among all processors.
func (b *Bank) MinNow() Time {
	if len(b.meters) == 0 {
		return 0
	}
	mn := b.meters[0].Now()
	for i := 1; i < len(b.meters); i++ {
		if t := b.meters[i].Now(); t < mn {
			mn = t
		}
	}
	return mn
}

// Barrier advances every processor to the current makespan, charging the
// stall of each to Sync. It returns the barrier time.
func (b *Bank) Barrier() Time {
	t := b.MaxNow()
	for i := range b.meters {
		b.meters[i].Idle(t)
	}
	return t
}

// Send models a message of wordCount words from processor src to processor
// dst over geometric distance dist: the receiver cannot proceed past the
// arrival time sender.Now() + dist + (wordCount-1) (a wordCount-word message
// streams at unit rate after the distance latency; wordCount >= 1). The
// sender is charged Message time for the link occupancy (wordCount units),
// and the receiver idles until arrival if needed.
//
// This is the paper's bounded-speed link: transmission time proportional to
// distance, negligible set-up (Section 6).
func (b *Bank) Send(src, dst int, dist Time, wordCount int64) {
	if wordCount < 1 {
		panic("cost: message with fewer than 1 word")
	}
	if dist < 0 {
		panic("cost: negative message distance")
	}
	s, d := &b.meters[src], &b.meters[dst]
	s.Charge(Message, Time(wordCount))
	arrival := s.Now() + dist
	d.Idle(arrival)
}

// Ledgers returns a merged copy of all processors' ledgers.
func (b *Bank) Ledgers() Ledger {
	var out Ledger
	for i := range b.meters {
		out.Merge(&b.meters[i].Ledger)
	}
	return out
}

// Mark opens a named accounting phase: all makespan growth and ledger
// charges from now until the next Mark (or Phases call) are attributed to
// name. Marking does not touch any clock or ledger — attribution is pure
// bookkeeping on snapshots, so charge sequences (and therefore virtual
// times) are identical with and without marks.
func (b *Bank) Mark(name string) {
	b.marks = append(b.marks, phaseMark{name: name, at: b.MaxNow(), led: b.Ledgers()})
}

// Phases closes the open phase and returns the per-phase breakdown:
// same-named intervals merged, in first-open order. It returns nil if
// Mark was never called.
func (b *Bank) Phases() PhaseBreakdown {
	if len(b.marks) == 0 {
		return nil
	}
	end := phaseMark{at: b.MaxNow(), led: b.Ledgers()}
	var out PhaseBreakdown
	idx := make(map[string]int)
	for i, mk := range b.marks {
		next := end
		if i+1 < len(b.marks) {
			next = b.marks[i+1]
		}
		j, ok := idx[mk.name]
		if !ok {
			j = len(out)
			idx[mk.name] = j
			out = append(out, PhaseEntry{Name: mk.name})
		}
		out[j].Time += next.at - mk.at
		for c := range out[j].Ledger.totals {
			out[j].Ledger.totals[c] += next.led.totals[c] - mk.led.totals[c]
			out[j].Ledger.counts[c] += next.led.counts[c] - mk.led.counts[c]
		}
	}
	return out
}

// Reset returns every meter to time zero with empty ledgers, drops all
// phase marks, and rewinds the delay-draw counters (the delay model
// itself stays installed, so a reset bank replays identical delays).
func (b *Bank) Reset() {
	for i := range b.meters {
		b.meters[i].Reset()
	}
	b.marks = nil
	for i := range b.delaySeq {
		b.delaySeq[i] = 0
	}
}
