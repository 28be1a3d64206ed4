package simulate

import (
	"context"
	"fmt"

	"bsmp/internal/cost"
	"bsmp/internal/hram"
	"bsmp/internal/network"
)

// This file validates the cooperating execution mode of Section 4.2 from
// first principles, on real machines rather than via the phase model of
// MultiContext at d = 1: a block of the guest computation straddling the
// boundary between two host processors is executed either
//
//   - cooperatively: each processor simulates its half on its own H-RAM,
//     and the Θ(1) boundary values per step travel as messages over the
//     host spacing n/p (the paper's "execution in the cooperating mode",
//     exchanging Θ(s) data items in total); or
//   - solo: the left processor simulates the whole block, first pulling
//     the right half's s/2 node memories — Θ(s·m) words — through memory
//     at the same distance.
//
// The paper observes that "depending upon the relative positions ... one
// alternative may be preferable over the other"; the measured crossover
// (cooperation wins as m grows, since it exchanges values instead of
// memories) is experiment E-COOP.

// CoopResult reports the two alternatives' measured times for one shared
// block, plus the verified outputs.
type CoopResult struct {
	// CoopTime is the makespan of the two-processor cooperative run.
	CoopTime cost.Time
	// SoloTime is the single-processor run including the remote fetch.
	SoloTime cost.Time
	// Outputs is the final broadcast row of the block (both runs agree).
	Outputs []hram.Word
}

// CoopBlockContext simulates steps steps of an s-column slice of the guest
// M1(n, n, m) that straddles the boundary between two adjacent processors
// of the host M1(n, p, m), both ways, and verifies the runs against each
// other. The slice is treated as isolated (reflecting ends), which keeps
// the comparison self-contained; s must be even and >= 2.
//
// Both the cooperative and the solo run poll cancellation once per
// simulated step, and report step progress to any attached Progress.
// Checks are host-side only, so a never-cancelled run's virtual times do
// not depend on ctx.
func CoopBlockContext(ctx context.Context, n, p, m, s, steps int, prog network.Program) (CoopResult, error) {
	if s < 2 || s%2 != 0 {
		return CoopResult{}, fmt.Errorf("simulate: CoopBlock needs even s >= 2, got %d", s)
	}
	if p < 2 || n%p != 0 {
		return CoopResult{}, fmt.Errorf("simulate: CoopBlock needs p >= 2 with p | n")
	}
	hostDist := float64(n) / float64(p)
	half := s / 2

	// --- Cooperative run: two processors, one H-RAM each. ---
	bank := cost.NewBank(2)
	// Each half holds half the node memories plus a broadcast word per
	// column plus one remote boundary slot.
	hsize := half*m + half + 1
	left := hram.New(hsize, hram.Standard(1, m), bank.Proc(0))
	right := hram.New(hsize, hram.Standard(1, m), bank.Proc(1))
	mach := [2]*hram.Machine{left, right}

	// Layout per half: node i's memory at [i·m, (i+1)·m); broadcast
	// words at [half·m + i]; the neighbor's boundary value at the last
	// cell.
	memBase := func(i int) int { return i * m }
	bAddr := func(i int) int { return half*m + i }
	remoteAddr := hsize - 1

	colOwner := func(x int) (side, local int) {
		if x < half {
			return 0, x
		}
		return 1, x - half
	}

	// Initialize (free, inputs in place).
	initMem := make([]hram.Word, m)
	b := make([]hram.Word, s)
	for x := 0; x < s; x++ {
		for i := range initMem {
			initMem[i] = 0
		}
		b[x] = prog.Init(x, initMem)
		side, local := colOwner(x)
		for i, w := range initMem {
			mach[side].Poke(memBase(local)+i, w)
		}
		mach[side].Poke(bAddr(local), b[x])
	}

	ec := newExecCtx(ctx)
	defer ec.publish()
	prevB := make([]hram.Word, s)
	ops := make([]hram.Word, 0, 3)
	for t := 1; t <= steps; t++ {
		if err := ec.step(s); err != nil {
			return CoopResult{}, err
		}
		copy(prevB, b)
		// Boundary exchange: each side sends its edge value to the other
		// (one word over the host spacing), written into the remote slot.
		bank.Send(0, 1, hostDist, 1)
		mach[1].Write(remoteAddr, prevB[half-1])
		bank.Send(1, 0, hostDist, 1)
		mach[0].Write(remoteAddr, prevB[half])
		// Each side simulates its half-layer on its own memory.
		for x := 0; x < s; x++ {
			side, local := colOwner(x)
			ma := mach[side]
			addr := memBase(local) + prog.Address(x, t, m)
			cell := ma.Read(addr)
			ops = ops[:0]
			ops = append(ops, prevB[x]) // self (charge local read)
			ma.Read(bAddr(local))
			if x > 0 {
				if os, ol := colOwner(x - 1); os == side {
					ma.Read(bAddr(ol))
				} else {
					ma.Read(remoteAddr)
				}
				ops = append(ops, prevB[x-1])
			}
			if x < s-1 {
				if os, ol := colOwner(x + 1); os == side {
					ma.Read(bAddr(ol))
				} else {
					ma.Read(remoteAddr)
				}
				ops = append(ops, prevB[x+1])
			}
			out, cellOut := prog.Step(x, t, cell, ops)
			ma.Op()
			ma.Write(addr, cellOut)
			ma.Write(bAddr(local), out)
			b[x] = out
		}
		bank.Barrier()
	}
	coopTime := bank.MaxNow()
	coopOut := make([]hram.Word, s)
	copy(coopOut, b)

	// --- Solo run: the left processor holds everything; the right
	// half's memories and broadcasts are first pulled across distance
	// n/p, each word paying the geometric distance. ---
	var meter cost.Meter
	solo := hram.New(s*m+s, hram.Standard(1, m), &meter)
	for x := 0; x < s; x++ {
		for i := range initMem {
			initMem[i] = 0
		}
		b[x] = prog.Init(x, initMem)
		for i, w := range initMem {
			solo.Poke(x*m+i, w)
		}
		solo.Poke(s*m+x, b[x])
		if x >= half {
			// Remote words: charge the pull explicitly (the fetch the
			// cooperating mode avoids).
			meter.ChargeN(cost.Transfer, int64(m+1), hostDist)
		}
	}
	for t := 1; t <= steps; t++ {
		if err := ec.step(s); err != nil {
			return CoopResult{}, err
		}
		copy(prevB, b)
		for x := 0; x < s; x++ {
			addr := x*m + prog.Address(x, t, m)
			cell := solo.Read(addr)
			ops = ops[:0]
			ops = append(ops, prevB[x])
			solo.Read(s*m + x)
			if x > 0 {
				solo.Read(s*m + x - 1)
				ops = append(ops, prevB[x-1])
			}
			if x < s-1 {
				solo.Read(s*m + x + 1)
				ops = append(ops, prevB[x+1])
			}
			out, cellOut := prog.Step(x, t, cell, ops)
			solo.Op()
			solo.Write(addr, cellOut)
			solo.Write(s*m+x, out)
			b[x] = out
		}
	}
	// Push the right half's results back (symmetric with the pull).
	meter.ChargeN(cost.Transfer, int64(half*(m+1)), hostDist)
	soloTime := meter.Now()

	for x := 0; x < s; x++ {
		if b[x] != coopOut[x] {
			return CoopResult{}, fmt.Errorf("simulate: solo and cooperative runs disagree at column %d", x)
		}
	}
	return CoopResult{CoopTime: coopTime, SoloTime: soloTime, Outputs: coopOut}, nil
}
