// Package hram implements the Hierarchical Random Access Machine of
// Definition 1 of Bilardi & Preparata (SPAA 1995): a RAM in which an access
// to address x costs f(x) time units. The physically motivated access
// function — memory laid out in d dimensions with density m cells per unit
// volume, signals traveling at bounded speed — is
//
//	f(x) = max(1, (x/m)^(1/d))
//
// with the paper's normalization that the unit of time is one instruction
// on address 0 and the unit of length is the distance reachable in unit
// time.
//
// An H-RAM charges its activity into a cost.Meter; it never consumes
// wall-clock resources proportional to the model cost.
package hram

import (
	"fmt"
	"math"

	"bsmp/internal/cost"
)

// Word is the H-RAM memory word. Integer words make functional
// verification of simulations exact.
type Word = uint64

// AccessFunc gives the access time f(x) for address x. Implementations
// must be non-negative and (for the theorems to apply) non-decreasing.
type AccessFunc func(x int) float64

// Standard returns the physical access function f(x) = max(1, (x/m)^(1/d))
// for a d-dimensional layout of density m (paper, Section 2). It panics
// unless d is 1, 2, or 3 and m >= 1.
func Standard(d, m int) AccessFunc {
	if d < 1 || d > 3 {
		panic(fmt.Sprintf("hram: dimension %d not in 1..3", d))
	}
	if m < 1 {
		panic(fmt.Sprintf("hram: density %d < 1", m))
	}
	fm := float64(m)
	switch d {
	case 1:
		return func(x int) float64 {
			return math.Max(1, float64(x)/fm)
		}
	case 2:
		return func(x int) float64 {
			return math.Max(1, math.Sqrt(float64(x)/fm))
		}
	default:
		return func(x int) float64 {
			return math.Max(1, math.Cbrt(float64(x)/fm))
		}
	}
}

// Uniform returns the unit-cost access function of the classical RAM —
// the "instantaneous technology" baseline against which the paper
// contrasts its model.
func Uniform() AccessFunc {
	return func(int) float64 { return 1 }
}

// Machine is an f(x)-H-RAM with a fixed-size memory. All activity is
// charged into the attached meter. A charge-only machine (NewCharges)
// has the same address space and charges but holds no words.
type Machine struct {
	mem       []Word // nil on a charge-only machine
	size      int
	f         AccessFunc
	meter     *cost.Meter
	pipelined bool
}

// Option configures a Machine.
type Option func(*Machine)

// WithPipelinedBlocks makes block copies cost latency + length
// (one f(·) charge for the farthest touched address plus one unit per
// word) instead of per-word access charges. This models the
// "memory enhanced with pipelining capabilities" discussed in the paper's
// conclusions and is used by the ablation benchmarks.
func WithPipelinedBlocks() Option {
	return func(m *Machine) { m.pipelined = true }
}

// New returns an H-RAM with size words of zeroed memory, access function f,
// charging into meter. It panics if size < 1 or any argument is nil.
func New(size int, f AccessFunc, meter *cost.Meter, opts ...Option) *Machine {
	m := NewCharges(size, f, meter, opts...)
	m.mem = make([]Word, size)
	return m
}

// NewCharges returns a charge-only H-RAM: it charges exactly what New's
// machine charges and checks the same bounds, but holds no memory, so
// reads return 0 and writes are dropped. It prices a computation whose
// charges do not depend on its values without storing them.
func NewCharges(size int, f AccessFunc, meter *cost.Meter, opts ...Option) *Machine {
	if size < 1 {
		panic(fmt.Sprintf("hram: size %d < 1", size))
	}
	if f == nil || meter == nil {
		panic("hram: nil access function or meter")
	}
	m := &Machine{size: size, f: f, meter: meter}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Size reports the memory size in words.
func (m *Machine) Size() int { return m.size }

// Meter returns the attached meter.
func (m *Machine) Meter() *cost.Meter { return m.meter }

// Pipelined reports whether block copies use the pipelined cost model.
func (m *Machine) Pipelined() bool { return m.pipelined }

// check panics on an out-of-bounds address.
func (m *Machine) check(addr int) {
	if addr < 0 || addr >= m.size {
		panic(fmt.Sprintf("hram: address %d out of bounds [0,%d)", addr, m.size))
	}
}

// Read returns the word at addr, charging f(addr) under Access.
func (m *Machine) Read(addr int) Word {
	m.check(addr)
	m.meter.Charge(cost.Access, m.f(addr))
	if m.mem == nil {
		return 0
	}
	return m.mem[addr]
}

// Write stores w at addr, charging f(addr) under Access.
func (m *Machine) Write(addr int, w Word) {
	m.check(addr)
	m.meter.Charge(cost.Access, m.f(addr))
	if m.mem != nil {
		m.mem[addr] = w
	}
}

// Peek returns the word at addr without charging — for assertions and
// verification only, never inside a measured simulation path.
func (m *Machine) Peek(addr int) Word {
	m.check(addr)
	if m.mem == nil {
		return 0
	}
	return m.mem[addr]
}

// Poke stores w at addr without charging — for test setup and loading
// initial inputs whose placement cost is accounted separately (or amortized
// away, as in the paper's preprocessing arguments).
func (m *Machine) Poke(addr int, w Word) {
	m.check(addr)
	if m.mem != nil {
		m.mem[addr] = w
	}
}

// Op charges one unit of Compute time — one RAM instruction's worth of
// local work (the operands are assumed already read via Read).
func (m *Machine) Op() {
	m.meter.Charge(cost.Compute, 1)
}

// BlockCopy copies k words from src.. to dst.. (non-overlapping or
// dst < src; verified), charging under Transfer. In the default per-word
// model each moved word costs f(source address) + f(destination address),
// matching the paper's "read from and written to a location with address
// lower than S(U)" accounting in Proposition 2. In the pipelined model the
// whole block costs f(highest touched address) + k.
func (m *Machine) BlockCopy(dst, src, k int) {
	if k < 0 {
		panic(fmt.Sprintf("hram: negative block length %d", k))
	}
	if k == 0 {
		return
	}
	m.check(src)
	m.check(src + k - 1)
	m.check(dst)
	m.check(dst + k - 1)
	if dst > src && dst < src+k {
		panic(fmt.Sprintf("hram: overlapping forward copy dst=%d src=%d k=%d", dst, src, k))
	}
	if m.pipelined {
		far := src + k - 1
		if dst+k-1 > far {
			far = dst + k - 1
		}
		m.meter.Charge(cost.Transfer, m.f(far)+float64(k))
	} else {
		var total float64
		for i := 0; i < k; i++ {
			total += m.f(src+i) + m.f(dst+i)
		}
		m.meter.Charge(cost.Transfer, total)
	}
	if m.mem != nil {
		copy(m.mem[dst:dst+k], m.mem[src:src+k])
	}
}

// MoveWord moves one word from src to dst charging f(src) + f(dst) under
// Transfer (a single-value relocation step of Proposition 2).
func (m *Machine) MoveWord(dst, src int) {
	m.check(src)
	m.check(dst)
	m.meter.Charge(cost.Transfer, m.f(src)+m.f(dst))
	if m.mem != nil {
		m.mem[dst] = m.mem[src]
	}
}
