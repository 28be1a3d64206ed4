package cost

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// TestTracePlayBitIdentical pins the contract the subtree memo relies on:
// replaying a recorded charge sequence advances a fresh meter to the
// bit-identical clock and ledger state of the recorded one, including
// sequences whose summed-delta replay would differ in the last ulps.
func TestTracePlayBitIdentical(t *testing.T) {
	charges := []struct {
		cat Category
		dt  Time
	}{
		{Access, 1.0 / 3}, {Access, 1.0 / 3}, {Access, 1.0 / 3},
		{Compute, 1}, {Transfer, 0.1}, {Transfer, 0.1}, {Transfer, 0.2},
		{Access, 1e-9}, {Compute, 1}, {Access, 12345.6789},
	}
	var orig Meter
	var rec Recorder
	orig.SetTap(rec.Record)
	for _, c := range charges {
		orig.Charge(c.cat, c.dt)
	}
	var replay Meter
	rec.Trace().Play(&replay)
	if replay.Now() != orig.Now() {
		t.Fatalf("replayed clock %v != original %v", replay.Now(), orig.Now())
	}
	for _, c := range Categories() {
		if replay.Total(c) != orig.Total(c) || replay.Count(c) != orig.Count(c) {
			t.Fatalf("category %v: replay %v/%d != original %v/%d",
				c, replay.Total(c), replay.Count(c), orig.Total(c), orig.Count(c))
		}
	}
	if got := rec.Trace().Events(); got != int64(len(charges)) {
		t.Fatalf("trace events %d, want %d", got, len(charges))
	}
}

// TestTraceRLE checks that homogeneous runs collapse and heterogeneous
// charges do not merge.
func TestTraceRLE(t *testing.T) {
	var rec Recorder
	for i := 0; i < 1000; i++ {
		rec.Record(Access, 2.5)
	}
	rec.Record(Compute, 1)
	if n := len(rec.Trace().tags); n != 2 {
		t.Fatalf("expected 2 RLE runs, got %d", n)
	}
	if ev := rec.Trace().Events(); ev != 1001 {
		t.Fatalf("expected 1001 events, got %d", ev)
	}
}

// TestTraceChild checks nested traces replay in place and count events.
func TestTraceChild(t *testing.T) {
	var inner Recorder
	inner.Record(Access, 3)
	inner.Record(Access, 3)

	var outer Recorder
	outer.Record(Compute, 1)
	outer.Child(inner.Trace())
	outer.Record(Compute, 1)

	var m Meter
	outer.Trace().Play(&m)
	if m.Now() != 8 {
		t.Fatalf("nested replay clock %v, want 8", m.Now())
	}
	if ev := outer.Trace().Events(); ev != 4 {
		t.Fatalf("nested events %d, want 4", ev)
	}
}

// TestChargeNTap checks the tap observes the summed ChargeN value, so a
// replay reproduces both the clock and the single ledger count.
func TestChargeNTap(t *testing.T) {
	var orig Meter
	var rec Recorder
	orig.SetTap(rec.Record)
	orig.ChargeN(Transfer, 7, 0.3)
	var replay Meter
	rec.Trace().Play(&replay)
	if replay.Now() != orig.Now() {
		t.Fatalf("replay %v != orig %v", replay.Now(), orig.Now())
	}
	if replay.Count(Transfer) != 1 {
		t.Fatalf("ChargeN must replay as one ledger entry, got %d", replay.Count(Transfer))
	}
}

// TestApplyDelta checks the analytic replay primitive: capture an
// interval as (clock delta, ledger delta) and apply it to a fresh meter.
func TestApplyDelta(t *testing.T) {
	var orig Meter
	orig.Charge(Compute, 1)
	before := orig.Now()
	ledBefore := orig.Ledger
	orig.Charge(Access, 2.25)
	orig.ChargeN(Transfer, 3, 1.5)
	dt := orig.Now() - before
	delta := orig.Ledger.Sub(&ledBefore)

	var m Meter
	m.Charge(Compute, 1)
	m.ApplyDelta(dt, &delta)
	if m.Now() != orig.Now() {
		t.Fatalf("ApplyDelta clock %v != %v", m.Now(), orig.Now())
	}
	if m.Total(Transfer) != orig.Total(Transfer) || m.Count(Transfer) != orig.Count(Transfer) {
		t.Fatalf("ApplyDelta ledger mismatch")
	}
}

// TestTraceLayout pins the packed layout: a trace of N distinct single
// charges keeps at most 9 bytes per charge (a tag byte and a float64),
// plus a constant for the allocator's size classes, summed over its
// arrays' capacities, and its run-length and child arrays stay empty.
func TestTraceLayout(t *testing.T) {
	const n = 10000
	var rec Recorder
	cats := Categories()
	for i := 0; i < n; i++ {
		rec.Record(cats[i%len(cats)], Time(i))
	}
	tr := rec.Trace()
	if cap(tr.ns) != 0 || cap(tr.kids) != 0 {
		t.Fatalf("side arrays hold %d run lengths and %d children, want none", cap(tr.ns), cap(tr.kids))
	}
	bytes := cap(tr.tags) + 8*(cap(tr.dts)+cap(tr.ns)+cap(tr.kids))
	if limit := 9*n + 8<<10; bytes > limit {
		t.Fatalf("%d single charges keep %d bytes, want at most %d", n, bytes, limit)
	}
	if ev := tr.Events(); ev != n {
		t.Fatalf("trace events %d, want %d", ev, n)
	}
}

// TestTraceTagHoldsEveryCategory checks that every Category fits the
// tag's category bits without touching its run and child flags.
func TestTraceTagHoldsEveryCategory(t *testing.T) {
	if tagCat&(tagRun|tagChild) != 0 {
		t.Fatalf("category bits %#x overlap the flags %#x", tagCat, tagRun|tagChild)
	}
	for _, c := range Categories() {
		if c&^tagCat != 0 {
			t.Errorf("category %v (%d) does not fit the category bits %#x", c, int(c), tagCat)
		}
	}
}

// FuzzTraceReplay checks the replay contract on arbitrary charge
// streams: runs of repeated values, nested recordings, replayed children
// and empty traces, recorded the way the blocked engine records them
// (a meter tap feeding the innermost open recorder, a finished or
// replayed trace linked into its parent). Playing the outermost trace
// must leave a fresh meter bit-identical to the meter charged directly,
// and Events must count every charge.
func FuzzTraceReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x08, 0x00, 0x11, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0x41, 200, 0x80, 0x0a, 0x0a, 0x81, 0xc0, 0x80, 0x81, 0xc1})
	f.Add([]byte{0x80, 0x80, 0x22, 0x81, 0x43, 9, 0x81, 0xc0, 0xc1, 0x3c})
	palette := [...]Time{0, 1, 0.1, 1.0 / 3, 2.5, 1e-9, 12345.6789}
	f.Fuzz(func(t *testing.T, data []byte) {
		var direct Meter
		open := []*Recorder{{}}
		direct.SetTap(func(c Category, dt Time) { open[len(open)-1].Record(c, dt) })
		var done []*Trace
		var charges int64
		for i := 0; i < len(data); i++ {
			op := data[i]
			switch op >> 6 {
			case 0, 1: // one charge, or with 0x40 a run of 2-65
				cat := Category(op&7) % numCategories
				dt := palette[0]
				if k := int(op>>3) & 7; k < len(palette) {
					dt = palette[k]
				} else if i+8 < len(data) {
					dt = math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:])))
					if math.IsNaN(dt) {
						dt = 0
					}
					i += 8
				}
				n := 1
				if op&0x40 != 0 && i+1 < len(data) {
					i++
					n = 2 + int(data[i])%64
				}
				for ; n > 0; n-- {
					direct.Charge(cat, dt)
					charges++
				}
			case 2: // open a nested recording, or close the innermost
				if op&1 == 0 {
					open = append(open, &Recorder{})
				} else if len(open) > 1 {
					tr := open[len(open)-1].Trace()
					open = open[:len(open)-1]
					open[len(open)-1].Child(tr)
					done = append(done, tr)
				}
			case 3: // replay a finished recording and link it in place
				if len(done) > 0 {
					tr := done[int(op&0x3f)%len(done)]
					tr.Play(&direct)
					open[len(open)-1].Child(tr)
					charges += tr.Events()
				}
			}
		}
		for len(open) > 1 {
			tr := open[len(open)-1].Trace()
			open = open[:len(open)-1]
			open[len(open)-1].Child(tr)
		}
		tr := open[0].Trace()
		var replay Meter
		tr.Play(&replay)
		if math.Float64bits(replay.Now()) != math.Float64bits(direct.Now()) {
			t.Fatalf("replayed clock %v != direct %v", replay.Now(), direct.Now())
		}
		for _, c := range Categories() {
			if math.Float64bits(replay.Total(c)) != math.Float64bits(direct.Total(c)) || replay.Count(c) != direct.Count(c) {
				t.Fatalf("category %v: replay %v/%d != direct %v/%d",
					c, replay.Total(c), replay.Count(c), direct.Total(c), direct.Count(c))
			}
		}
		if ev := tr.Events(); ev != charges {
			t.Fatalf("trace events %d, want %d charges", ev, charges)
		}
	})
}

// traceSink keeps BenchmarkTrace's replayed clock live.
var traceSink Time

// BenchmarkTrace records, finishes and plays a leaf-shaped charge
// stream: per vertex, three neighbour reads and a write priced
// f(x) = max(1, x/m) at drifting addresses around one compute charge,
// so nearly every run is a single charge, as in the memo store's
// records. It reports the time and the bytes allocated per charge.
func BenchmarkTrace(b *testing.B) {
	const vertices, m = 1024, 4
	type charge struct {
		cat Category
		dt  Time
	}
	f := func(x int) Time { return math.Max(1, Time(x)/m) }
	var stream []charge
	for v := 0; v < vertices; v++ {
		base := 64 + 3*v
		stream = append(stream, charge{Access, f(base)}, charge{Access, f(base + 1)},
			charge{Access, f(base + 2)}, charge{Compute, 1}, charge{Access, f(base + 5)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec Recorder
		for _, c := range stream {
			rec.Record(c.cat, c.dt)
		}
		var meter Meter
		rec.Trace().Play(&meter)
		traceSink = meter.Now()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	charges := float64(b.N) * float64(len(stream))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/charges, "ns/charge")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/charges, "B/charge")
}
