package simulate

import (
	"context"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/sched"
)

// BenchmarkMultiD1Theta pairs with BenchmarkMultiD1: the identical
// tuple through the event-driven Θ-model engine at Θ = 1 (same charge
// sequence, queue dispatch instead of the phase barrier). The delta
// between the two is the scheduler core's overhead on a dense schedule.
func BenchmarkMultiD1Theta(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := MultiD1Context(context.Background(), 256, 8, 16, 64, prog, MultiOptions{Theta: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiD1ThetaStretch is the same tuple at Θ = 2: every
// distance-proportional charge additionally draws a seeded delay
// factor, and the desynchronized joins do real Idle work.
func BenchmarkMultiD1ThetaStretch(b *testing.B) {
	prog := netProg(0)
	for i := 0; i < b.N; i++ {
		if _, err := MultiD1Context(context.Background(), 256, 8, 16, 64, prog, MultiOptions{Theta: 2, ThetaSeed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// Sparse-phase pair: rounds rounds over p processors with only active
// of them charging per round. The barrier implementation pays O(p) per
// round — every meter is scanned and idled to the round maximum whether
// it moved or not — while the event queue touches only the processors
// that have events, paying O(active·log active) per round plus one
// final O(p) join. The pair quantifies the idle-skip win the scheduler
// core buys on sparse phases (most processors quiescent most rounds).

const (
	sparseProcs  = 1024
	sparseRounds = 64
	sparseActive = 4
)

func BenchmarkSparseWaveBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bank := cost.NewBank(sparseProcs)
		for r := 0; r < sparseRounds; r++ {
			base := (r * sparseActive) % sparseProcs
			for k := 0; k < sparseActive; k++ {
				bank.Proc((base+k)%sparseProcs).Charge(cost.Transfer, 8)
			}
			bank.Barrier()
		}
		if bank.MaxNow() == 0 {
			b.Fatal("no time accumulated")
		}
	}
}

func BenchmarkSparseWaveEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bank := cost.NewBank(sparseProcs)
		q := sched.New()
		// Rounds chain through the queue: each active processor's charge
		// is an event at its own current virtual time, and the next
		// round's events land at the post-charge times — idle processors
		// are never visited.
		var round func(r int)
		round = func(r int) {
			if r == sparseRounds {
				return
			}
			base := (r * sparseActive) % sparseProcs
			done := 0
			for k := 0; k < sparseActive; k++ {
				proc := (base + k) % sparseProcs
				q.At(float64(bank.Proc(proc).Now()), proc, func() {
					bank.Proc(proc).Charge(cost.Transfer, 8)
					if done++; done == sparseActive {
						round(r + 1)
					}
				})
			}
		}
		round(0)
		q.Run()
		// One final join replaces the per-round full-bank barrier.
		max := bank.MaxNow()
		for p := 0; p < sparseProcs; p++ {
			bank.Proc(p).Idle(max)
		}
		if bank.MaxNow() == 0 {
			b.Fatal("no time accumulated")
		}
	}
}
