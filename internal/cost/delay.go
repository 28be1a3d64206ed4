package cost

import (
	"fmt"
	"math"
)

// ThetaModel is the bounded-delay-ratio model (the theta-model of the
// PSync line of work) of the Θ-model schedule: every
// distance-proportional charge (block transfers and messages) of base
// cost d takes an adversarially chosen but bounded time in [d, Θ·d].
// The lockstep machines of the paper are a bank with no model (every
// factor exactly 1). The adversary here is a seeded hash —
// deterministic in (seed, proc, seq), uniform over [d, Θ·d) — so runs
// are reproducible and a Θ-sweep with a fixed seed varies only the
// bound, not the draw.
//
// The bank assigns each processor a monotone per-processor sequence
// number, so the stretch applied to the k-th delayed charge of
// processor i is the same in every run with the same model, whatever
// order the processors are charged in — and, because the factor is
// 1 + (Θ-1)·u with u fixed by (seed, proc, seq), it is monotone
// non-decreasing in Θ. That is what makes slowdown degrade gracefully
// (monotonically) as Θ grows.
type ThetaModel struct {
	theta float64
	seed  uint64
}

// NewThetaModel builds a ThetaModel with ratio theta and the given
// seed. theta must be finite and >= 1.
func NewThetaModel(theta float64, seed uint64) (*ThetaModel, error) {
	if math.IsNaN(theta) || math.IsInf(theta, 0) || theta < 1 {
		return nil, fmt.Errorf("cost: delay ratio theta must be finite and >= 1, got %v", theta)
	}
	return &ThetaModel{theta: theta, seed: seed}, nil
}

// Theta reports the model's delay ratio Θ >= 1.
func (t *ThetaModel) Theta() float64 { return t.theta }

// Factor returns the multiplicative stretch 1 + (Θ-1)·u for the seq-th
// distance-proportional charge of processor proc, with
// u = u(seed, proc, seq) ∈ [0, 1).
// At Θ = 1 it returns exactly 1 — not a value that rounds to 1 — so a
// Θ = 1 run charges the lockstep charge sequences bit-identically.
func (t *ThetaModel) Factor(proc int, seq uint64) float64 {
	if t.theta == 1 {
		return 1
	}
	return 1 + (t.theta-1)*t.unit(proc, seq)
}

// unit returns the deterministic uniform draw in [0, 1) for (proc, seq).
func (t *ThetaModel) unit(proc int, seq uint64) float64 {
	h := mix64(t.seed ^ (uint64(proc)+1)*0xbf58476d1ce4e5b9 ^ (seq+1)*0x94d049bb133111eb)
	return float64(h>>11) / (1 << 53)
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash used to derive per-charge delay draws from (seed, proc, seq).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SetDelayModel installs (or clears, with nil) the bank's delay model
// and resets the per-processor delay sequence counters. Only
// ChargeDelayed consults the model; plain Charge/ChargeN are never
// stretched (compute is not a propagating activity).
func (b *Bank) SetDelayModel(dm *ThetaModel) {
	b.dm = dm
	if dm == nil {
		b.delaySeq = nil
		return
	}
	b.delaySeq = make([]uint64, len(b.meters))
}

// ChargeDelayed charges processor i under cat for a
// distance-proportional activity of base duration dt, stretched by the
// bank's delay model, whose factor it draws from processor i's next
// delay sequence number. A unit factor (no model, or Θ = 1) charges
// exactly dt through the exact same code path as Meter.Charge, so
// lockstep charge sequences — and therefore virtual times — are
// recovered bit-identically. It returns the stretched duration charged.
func (b *Bank) ChargeDelayed(i int, cat Category, dt Time) Time {
	if b.dm != nil {
		if f := b.dm.Factor(i, b.delaySeq[i]); f != 1 {
			dt *= f
		}
		b.delaySeq[i]++
	}
	b.meters[i].Charge(cat, dt)
	return dt
}
