package hram

import (
	"math"
	"testing"
	"testing/quick"

	"bsmp/internal/cost"
)

func TestStandardAccessFunc(t *testing.T) {
	cases := []struct {
		d, m int
		x    int
		want float64
	}{
		{1, 1, 0, 1},
		{1, 1, 5, 5},
		{1, 4, 8, 2},
		{2, 1, 16, 4},
		{2, 4, 16, 2},
		{3, 1, 27, 3},
		{3, 1, 1000000, 100},
	}
	for _, c := range cases {
		f := Standard(c.d, c.m)
		if got := f(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Standard(%d,%d)(%d) = %v, want %v", c.d, c.m, c.x, got, c.want)
		}
	}
}

func TestStandardClampsToUnit(t *testing.T) {
	f := Standard(2, 100)
	if got := f(4); got != 1 {
		t.Errorf("f(4) with m=100 = %v, want clamp to 1", got)
	}
}

func TestStandardPanics(t *testing.T) {
	for _, c := range []struct{ d, m int }{{0, 1}, {4, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Standard(%d,%d) did not panic", c.d, c.m)
				}
			}()
			Standard(c.d, c.m)
		}()
	}
}

func TestUniform(t *testing.T) {
	f := Uniform()
	if f(0) != 1 || f(1<<20) != 1 {
		t.Fatal("Uniform not unit cost")
	}
}

func newTest(size int, opts ...Option) (*Machine, *cost.Meter) {
	var m cost.Meter
	return New(size, Standard(1, 1), &m, opts...), &m
}

func TestReadWriteChargesAccess(t *testing.T) {
	m, meter := newTest(16)
	m.Write(10, 42)
	if got := m.Read(10); got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
	// f(10) = 10 for write + 10 for read.
	if got := meter.Total(cost.Access); got != 20 {
		t.Fatalf("access total = %v, want 20", got)
	}
	if meter.Now() != 20 {
		t.Fatalf("clock = %v, want 20", meter.Now())
	}
}

func TestAddressZeroCostsUnit(t *testing.T) {
	m, meter := newTest(4)
	m.Read(0)
	if got := meter.Total(cost.Access); got != 1 {
		t.Fatalf("f(0) charge = %v, want 1 (paper's unit normalization)", got)
	}
}

func TestPeekPokeFree(t *testing.T) {
	m, meter := newTest(8)
	m.Poke(5, 7)
	if m.Peek(5) != 7 {
		t.Fatal("Peek after Poke mismatch")
	}
	if meter.Sum() != 0 {
		t.Fatalf("Peek/Poke charged %v", meter.Sum())
	}
}

func TestOpChargesCompute(t *testing.T) {
	m, meter := newTest(4)
	m.Op()
	m.Op()
	if got := meter.Total(cost.Compute); got != 2 {
		t.Fatalf("compute total = %v, want 2", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m, _ := newTest(4)
	for name, fn := range map[string]func(){
		"read high":  func() { m.Read(4) },
		"read neg":   func() { m.Read(-1) },
		"write high": func() { m.Write(99, 0) },
		"poke neg":   func() { m.Poke(-2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBlockCopyMovesData(t *testing.T) {
	m, meter := newTest(32)
	for i := 0; i < 4; i++ {
		m.Poke(20+i, Word(i+1))
	}
	m.BlockCopy(2, 20, 4)
	for i := 0; i < 4; i++ {
		if m.Peek(2+i) != Word(i+1) {
			t.Fatalf("dst[%d] = %d", i, m.Peek(2+i))
		}
	}
	// Per-word: sum f(20..23) + f(2..5) = (20+21+22+23) + (2+3+4+5) = 100.
	if got := meter.Total(cost.Transfer); got != 100 {
		t.Fatalf("transfer = %v, want 100", got)
	}
}

func TestBlockCopyPipelinedCost(t *testing.T) {
	var meter cost.Meter
	m := New(32, Standard(1, 1), &meter, WithPipelinedBlocks())
	if !m.Pipelined() {
		t.Fatal("option not applied")
	}
	m.BlockCopy(2, 20, 4)
	// Pipelined: f(23) + 4 = 27.
	if got := meter.Total(cost.Transfer); got != 27 {
		t.Fatalf("pipelined transfer = %v, want 27", got)
	}
}

func TestBlockCopyZeroLength(t *testing.T) {
	m, meter := newTest(8)
	m.BlockCopy(0, 4, 0)
	if meter.Sum() != 0 {
		t.Fatal("zero-length copy charged")
	}
}

func TestBlockCopyOverlapPanics(t *testing.T) {
	m, _ := newTest(16)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping forward copy did not panic")
		}
	}()
	m.BlockCopy(5, 4, 4)
}

func TestBlockCopyBackwardOverlapAllowed(t *testing.T) {
	m, _ := newTest(16)
	for i := 0; i < 4; i++ {
		m.Poke(4+i, Word(i+10))
	}
	m.BlockCopy(3, 4, 4) // dst < src: copy() handles overlap correctly
	for i := 0; i < 4; i++ {
		if m.Peek(3+i) != Word(i+10) {
			t.Fatalf("backward overlap copy wrong at %d", i)
		}
	}
}

func TestMoveWord(t *testing.T) {
	m, meter := newTest(16)
	m.Poke(9, 5)
	m.MoveWord(1, 9)
	if m.Peek(1) != 5 {
		t.Fatal("MoveWord did not move")
	}
	if got := meter.Total(cost.Transfer); got != 10 {
		t.Fatalf("transfer = %v, want f(9)+f(1) = 10", got)
	}
}

func TestNewPanics(t *testing.T) {
	var meter cost.Meter
	for name, fn := range map[string]func(){
		"size 0":   func() { New(0, Uniform(), &meter) },
		"nil f":    func() { New(4, nil, &meter) },
		"nil mtr":  func() { New(4, Uniform(), nil) },
		"neg copy": func() { m := New(8, Uniform(), &meter); m.BlockCopy(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: the standard access function is non-decreasing and >= 1.
func TestPropertyStandardMonotone(t *testing.T) {
	f := func(d0, m0 uint8, xs []uint16) bool {
		d := int(d0%3) + 1
		m := int(m0%64) + 1
		f := Standard(d, m)
		prev := 0.0
		// Probe ascending addresses.
		x := 0
		for _, dx := range xs {
			x += int(dx % 1024)
			v := f(x)
			if v < 1 || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BlockCopy is value-equivalent to a loop of MoveWord, and the
// per-word cost model charges identically.
func TestPropertyBlockCopyEquivalence(t *testing.T) {
	f := func(seed uint8, kRaw uint8) bool {
		k := int(kRaw % 8)
		var mtr1, mtr2 cost.Meter
		a := New(64, Standard(1, 1), &mtr1)
		b := New(64, Standard(1, 1), &mtr2)
		for i := 0; i < k; i++ {
			w := Word(seed) + Word(i)*7
			a.Poke(40+i, w)
			b.Poke(40+i, w)
		}
		a.BlockCopy(8, 40, k)
		for i := 0; i < k; i++ {
			b.MoveWord(8+i, 40+i)
		}
		for i := 0; i < k; i++ {
			if a.Peek(8+i) != b.Peek(8+i) {
				return false
			}
		}
		return math.Abs(mtr1.Total(cost.Transfer)-mtr2.Total(cost.Transfer)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A charge-only machine makes exactly a memory machine's charges: fed
// the same op sequence, per-word and pipelined, their meters match bit
// for bit, it reads back zeros, and it panics on the same out-of-bounds
// addresses.
func TestNewChargesMatchesNew(t *testing.T) {
	const size = 64
	ops := func(m *Machine) {
		m.Poke(40, 9)
		m.Write(3, 7)
		m.Read(3)
		m.Op()
		m.BlockCopy(10, 40, 8)
		m.BlockCopy(5, 9, 4) // backward overlap
		m.MoveWord(63, 0)
		m.Read(63)
		m.BlockCopy(0, 1, 0)
		m.Write(0, 1)
	}
	for _, opts := range [][]Option{nil, {WithPipelinedBlocks()}} {
		var full, charges cost.Meter
		mem := New(size, Standard(2, 3), &full, opts...)
		ch := NewCharges(size, Standard(2, 3), &charges, opts...)
		if ch.Size() != mem.Size() || ch.Pipelined() != mem.Pipelined() {
			t.Fatalf("NewCharges: size %d pipelined %v, New: %d %v", ch.Size(), ch.Pipelined(), mem.Size(), mem.Pipelined())
		}
		ops(mem)
		ops(ch)
		if full.Now() != charges.Now() {
			t.Fatalf("pipelined=%v: clock %v, memory machine %v", mem.Pipelined(), charges.Now(), full.Now())
		}
		for _, c := range cost.Categories() {
			if full.Total(c) != charges.Total(c) || full.Count(c) != charges.Count(c) {
				t.Fatalf("pipelined=%v: %v = %v/%d, memory machine %v/%d", mem.Pipelined(), c,
					charges.Total(c), charges.Count(c), full.Total(c), full.Count(c))
			}
		}
		if got := ch.Read(3) + ch.Peek(40) + ch.Peek(10); got != 0 {
			t.Fatalf("charge-only machine read back %d, want 0", got)
		}
		for _, bad := range []func(m *Machine){
			func(m *Machine) { m.Read(size) },
			func(m *Machine) { m.Write(-1, 0) },
			func(m *Machine) { m.Poke(size, 0) },
			func(m *Machine) { m.Peek(-1) },
			func(m *Machine) { m.BlockCopy(size-2, 0, 4) },
			func(m *Machine) { m.BlockCopy(5, 4, 4) },
			func(m *Machine) { m.MoveWord(0, size) },
		} {
			if a, b := panics(func() { bad(mem) }), panics(func() { bad(ch) }); !a || !b {
				t.Fatalf("out-of-bounds op: memory machine panics %v, charge-only %v", a, b)
			}
		}
	}
}

func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
