package network

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// This file is the helper handshake: a second goroutine that steps the
// upper half of each of a Guest's row-path steps while the stepping
// goroutine steps the lower half. It is Brent's simulation of the guest
// on two host processors instead of one; every node is still stepped
// exactly once per step by the program's own StepRow, so outputs,
// memories and addresses are those of an unhelped run.

// SplitMin is the smallest guest, in nodes, whose steps a helper splits.
// Below it a half row is too short to pay for the per-step handshake and
// for the worker the helper holds. BenchmarkGuestStep's split and row
// paths (internal/guest), run at other sizes with MixCA's stencil kernel,
// m = 4, on a 2-vCPU host at GOMAXPROCS=2, medians of 9, measured a
// helped step at 1.51× a lone one at d = 1, n = 2048, 1.26× at n = 1024
// (by the minima 1.06× and 0.90×: n = 1024 is a tie) and 0.42× at
// n = 512; at d = 2, n = 1024 it was 0.98×, and at d = 3, n = 2197,
// 1.70× (median of 5). Against the one-loop kernel before the stencil
// runs, a helped d = 1 step was 1.52× a lone one at n = 1024, 1.28× at
// 768, 1.05× at 512 and 0.78× at 256. A sweep-heavy op replays about
// 1 M of its 8.9 M vertices at n = 1024, too few for its end-to-end
// pairs to tell this bound from 2048, so it stays.
const SplitMin = 1024

// Helpers lends a running guest helper goroutines (SetHelpers).
type Helpers interface {
	// Lend is called by a Run's stepping goroutine between steps, while
	// the Run has no helper and has no lend outstanding; it must not
	// block. It returns false to refuse, and the Run asks again at a
	// later step. Otherwise it must call g.Help exactly once, on another
	// goroutine: on the goroutine that is to help, or, when none will,
	// with a leave that reports true, which answers the lend with no
	// helper.
	Lend(g *Guest) bool
}

// SetHelpers gives the guest a source of helpers for its later Runs; nil
// takes it away. Only a Run of at least SplitMin nodes on the row path
// asks for a helper.
func (g *Guest) SetHelpers(h Helpers) { g.lend = h }

// The states of a helpSlot. A Run opens the slot and closes it when it
// returns; in between, at most one helper is attached.
const (
	helpClosed   int32 = iota // no Run takes a helper
	helpOpen                  // a Run takes one: none attached, none asked for
	helpAsked                 // the Run has a lend outstanding
	helpAttached              // a helper is attached
	helpDetach                // the Run is returning: its helper must let go
)

// helpSlot is the state a Guest shares with its helper. The stepping
// goroutine offers step t's upper half by storing t in offer and takes
// it back with one compare-and-swap t → 0 after its lower half; the
// helper claims it with t → -t, steps it and stores t in done. upper,
// took and panicked pass between them through those atomics.
type helpSlot struct {
	state    atomic.Int32
	offer    atomic.Int64
	done     atomic.Int64
	upper    Row
	took     bool
	panicked any
}

// spinsPerYield is how many times a handshake wait polls before it
// yields its P: a waiter whose peer runs on another P sees the event
// without a trip through the scheduler, and on a single P the peer still
// gets to run.
const spinsPerYield = 64

// backoff is one iteration of a handshake wait loop: it yields the P on
// every spinsPerYield-th call.
func backoff(spins *int) {
	if *spins++; *spins%spinsPerYield == 0 {
		runtime.Gosched()
	}
}

// open lets the Run that calls it take a helper.
func (h *helpSlot) open() { h.state.Store(helpOpen) }

// close ends the Run's lending: it detaches the helper, if one is
// attached, and returns once that helper has let go.
func (h *helpSlot) close() {
	spins := 0
	for {
		switch s := h.state.Load(); s {
		case helpAttached:
			h.state.CompareAndSwap(helpAttached, helpDetach)
		case helpDetach:
			backoff(&spins)
		default:
			if h.state.CompareAndSwap(s, helpClosed) {
				// A Run that panicked mid-step may leave an offer, a
				// done mark or the helper's panic behind; the next Run
				// starts clean.
				h.offer.Store(0)
				h.done.Store(0)
				h.panicked = nil
				return
			}
		}
	}
}

// ask asks the guest's Helpers for a helper.
func (g *Guest) ask() {
	if g.help.state.CompareAndSwap(helpOpen, helpAsked) && !g.lend.Lend(g) {
		g.help.state.CompareAndSwap(helpAsked, helpOpen)
	}
}

// Help is a helper's side of a lend (Helpers.Lend): it attaches to the
// guest's live Run, if that Run asked for a helper and leave reports
// false, and steps the upper half of each step the Run offers until the
// Run returns or leave reports true at a step boundary. It returns at
// once when it cannot attach. A panic in the upper half is handed to the
// stepping goroutine, which raises it from Run; Help itself then returns
// when the Run does.
func (g *Guest) Help(leave func() bool) {
	h := &g.help
	if h.state.Load() != helpAsked {
		return
	}
	if leave() {
		h.state.CompareAndSwap(helpAsked, helpOpen)
		return
	}
	if !h.state.CompareAndSwap(helpAsked, helpAttached) {
		return
	}
	spins := 0
	for {
		switch t := h.offer.Load(); {
		case h.state.Load() == helpDetach:
			h.state.Store(helpClosed)
			return
		case leave() && h.state.CompareAndSwap(helpAttached, helpOpen):
			return
		case t > 0 && h.offer.CompareAndSwap(t, -t):
			h.stepUpper(g.row)
			h.done.Store(t)
		default:
			backoff(&spins)
		}
	}
}

// stepUpper steps the offered upper half, keeping a panic for the
// stepping goroutine.
func (h *helpSlot) stepUpper(row RowProgram) {
	defer func() {
		if r := recover(); r != nil {
			h.panicked = r
		}
	}()
	h.took = row.StepRow(&h.upper)
}

// stepSplit steps g.args, a whole row, as two halves: it offers the
// upper half to the attached helper, steps the lower half, then steps
// the upper half itself unless the helper has claimed it, in which case
// it waits for the helper to finish. It never waits for a helper that
// has not started.
func (g *Guest) stepSplit() bool {
	h := &g.help
	h.upper = g.args
	h.upper.Lo = len(g.out) / 2
	g.args.Hi = h.upper.Lo
	t := int64(g.args.T)
	h.offer.Store(t)
	took := g.row.StepRow(&g.args)
	upper := false
	if h.offer.CompareAndSwap(t, 0) {
		upper = took && g.row.StepRow(&h.upper)
	} else {
		for spins := 0; h.done.Load() != t; {
			backoff(&spins)
		}
		g.helped++
		if p := h.panicked; p != nil {
			h.panicked = nil
			panic(p)
		}
		upper = h.took
	}
	if took != upper {
		panic(fmt.Sprintf("network: StepRow took one half of step %d and declined the other", t))
	}
	return took
}
