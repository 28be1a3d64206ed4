package network

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsmp/internal/topology"
)

// handoff is caRowProg made to hand every split step to its helper, so
// the handshake runs the same way on any number of Ps: while a helper is
// attached the lower half yields until the helper has claimed the upper
// half or left. cur holds the step last stepped, for leave functions to
// read, and panicAt makes the upper half of that step panic.
type handoff struct {
	caRowProg
	g       *Guest
	cur     atomic.Int64
	panicAt int
}

func (p *handoff) StepRow(r *Row) bool {
	h := &p.g.help
	if r.Lo == 0 {
		for h.offer.Load() == int64(r.T) && h.state.Load() == helpAttached {
			runtime.Gosched()
		}
		p.cur.Store(int64(r.T))
	} else if r.T == p.panicAt {
		panic(fmt.Sprintf("upper half of step %d", r.T))
	}
	return p.caRowProg.StepRow(r)
}

// newHandoff builds a guest of handoff on the d-dimensional n-node mesh.
func newHandoff(d, n, m int) (*Guest, *handoff) {
	p := &handoff{}
	p.g = NewGuest(topology.NewMesh(d, n, n), m, p)
	return p.g, p
}

// testHelpers is a test-side Helpers: it accepts the lends of steps at
// or after join (never when join is 0), each with a goroutine that helps
// under leave. So that tests can count helped steps exactly, Lend yields
// until that goroutine has attached or declined, which a lender outside
// tests must not wait for.
type testHelpers struct {
	join  int
	leave func() bool
	wg    sync.WaitGroup
}

func (h *testHelpers) Lend(g *Guest) bool {
	if h.join == 0 || g.Steps()+1 < h.join {
		return false
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		g.Help(h.leave)
	}()
	for g.help.state.Load() == helpAsked {
		runtime.Gosched()
	}
	return true
}

// wait returns once every helper goroutine has returned, failing the
// test after a generous bound.
func (h *testHelpers) wait(t *testing.T, name string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: a helper did not return", name)
	}
}

func stay() bool { return false }

// helperSides are the guest sides the helper laws run at: one below
// SplitMin and one above it, per dimension; the odd node counts split
// into unequal halves.
var helperSides = [][2]int{1: {99, 1031}, 2: {31, 33}, 3: {9, 11}}

// TestGuestHelperLaws drives guests through two Runs (k steps, then the
// rest: the resume path) with a test-side helper that joins at the first
// step it may, at a middle step, at the last step or never, and one that
// leaves for two steps and rejoins. Outputs, memories and addresses
// equal an unhelped run's and RunGuestPure's; a helper never attaches
// below SplitMin; and once attached a helper takes half of every later
// step of its Run, so Helped counts exactly those steps.
func TestGuestHelperLaws(t *testing.T) {
	checkHelperLaws(t)
}

// TestGuestHelperLawsOneP runs the helper laws on a single P: every wait
// in the handshake yields, so neither side spins the other out.
func TestGuestHelperLawsOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	checkHelperLaws(t)
}

func checkHelperLaws(t *testing.T) {
	const steps, k, m = 12, 4, 3
	for d := 1; d <= 3; d++ {
		for _, side := range helperSides[d] {
			n := side
			for i := 1; i < d; i++ {
				n *= side
			}
			wantOut, wantMem := RunGuestPure(d, n, m, steps, caProg{})
			ref := NewGuest(topology.NewMesh(d, n, n), m, caProg{})
			ref.Run(steps, nil)
			for _, join := range []int{0, 1, steps / 2, steps} {
				for _, window := range []bool{false, true} {
					name := fmt.Sprintf("d=%d/n=%d/join=%d/leave=%v", d, n, join, window)
					g, prog := newHandoff(d, n, m)
					lend := &testHelpers{join: join, leave: stay}
					if window {
						lend.leave = func() bool {
							s := prog.cur.Load()
							return s >= steps/2+2 && s < steps/2+4
						}
					}
					g.SetHelpers(lend)
					if err := g.Run(k, nil); err != nil {
						t.Fatal(err)
					}
					if err := g.Run(steps, nil); err != nil {
						t.Fatal(err)
					}
					lend.wait(t, name)
					for v := 0; v < n; v++ {
						if g.Outputs()[v] != wantOut[v] || g.Addr(v) != ref.Addr(v) {
							t.Fatalf("%s: node %d output %d addr %d, unhelped %d and %d",
								name, v, g.Outputs()[v], g.Addr(v), wantOut[v], ref.Addr(v))
						}
					}
					for i, w := range g.Memory() {
						if w != wantMem[i] {
							t.Fatalf("%s: memory word %d = %d, unhelped %d", name, i, w, wantMem[i])
						}
					}
					if window {
						continue
					}
					if want := wantHelped(n, join, k, steps); g.Helped() != want {
						t.Fatalf("%s: helped %d steps, want %d", name, g.Helped(), want)
					}
				}
			}
		}
	}
}

// wantHelped is the number of steps a helper that never leaves takes
// half of over Runs to k and then to steps. A fresh guest first asks
// before step 2, once step 1 went through the row path, and a resumed
// one before its first step; the helper attaches before the step its
// lend is accepted at and takes half of it and of every later step of
// that Run.
func wantHelped(n, join, k, steps int) int {
	if n < SplitMin || join == 0 {
		return 0
	}
	helped := 0
	for _, run := range [][2]int{{2, k}, {k + 1, steps}} {
		if at := max(join, run[0]); at <= run[1] {
			helped += run[1] - at + 1
		}
	}
	return helped
}

// The stepper laws of TestGuestStepperLaws hold for a guest that resumes
// under a helper.
func TestGuestStepperLawsHelped(t *testing.T) {
	const steps, k, m = 12, 5, 4
	for d := 1; d <= 3; d++ {
		n := []int{0, 1031, 1089, 1331}[d]
		wantOut, wantMem := RunGuestPure(d, n, m, steps, caProg{})
		checkStepperLaws(t, fmt.Sprintf("helped/d=%d", d), caRowProg{}, d, n, m, steps, k, wantOut, wantMem,
			&testHelpers{join: 1, leave: stay})
	}
}

// Run returns only after its helper has let go: the caller may write
// the guest's memory and outputs at once, which the race detector checks.
func TestGuestRunReturnsAfterHelperLetsGo(t *testing.T) {
	for _, steps := range []int{2, 3, 16} {
		g, _ := newHandoff(1, 2048, 2)
		lend := &testHelpers{join: 1, leave: stay}
		g.SetHelpers(lend)
		if err := g.Run(steps, nil); err != nil {
			t.Fatal(err)
		}
		mem, out := g.Memory(), g.Outputs()
		for i := range mem {
			mem[i]++
		}
		for i := range out {
			out[i]++
		}
		lend.wait(t, fmt.Sprintf("steps=%d", steps))
	}
}

// A panic in the upper half, stepped by the helper, reaches Run's
// caller, and the helper returns.
func TestGuestHelperPanicReachesRun(t *testing.T) {
	g, prog := newHandoff(1, 2048, 2)
	prog.panicAt = 6
	lend := &testHelpers{join: 1, leave: stay}
	g.SetHelpers(lend)
	got := func() (r any) {
		defer func() { r = recover() }()
		g.Run(16, nil)
		return nil
	}()
	if got != "upper half of step 6" {
		t.Fatalf("Run raised %v, want the upper half's panic", got)
	}
	if g.Helped() != 5 {
		t.Fatalf("helped %d steps before the panic, want 5 (steps 2-6)", g.Helped())
	}
	lend.wait(t, "panic")
	if s := g.help.state.Load(); s != helpClosed {
		t.Fatalf("helper state %d after Run, want closed", s)
	}
}

// lateHelpers accepts every lend and keeps the guest, so a test can send
// the helper after the Run has returned.
type lateHelpers struct{ asked *Guest }

func (h *lateHelpers) Lend(g *Guest) bool {
	h.asked = g
	return true
}

// A helper that comes after its Run has returned finds the Run over and
// returns at once, stepping nothing: it attaches only to a live Run.
func TestGuestLateHelperReturns(t *testing.T) {
	g := NewGuest(topology.NewMesh(1, 2048, 2048), 1, caRowProg{})
	late := &lateHelpers{}
	g.SetHelpers(late)
	if err := g.Run(4, nil); err != nil {
		t.Fatal(err)
	}
	if late.asked != g {
		t.Fatal("the Run never asked for a helper")
	}
	done := make(chan struct{})
	go func() {
		g.Help(stay)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a helper attached to a Run that had returned")
	}
}

// A helper whose leave is already true answers the lend with no help,
// and Help on a guest with no live Run returns at once.
func TestGuestHelpWithoutRun(t *testing.T) {
	g := NewGuest(topology.NewMesh(1, 2048, 2048), 1, caRowProg{})
	g.Help(stay)
	if s := g.help.state.Load(); s != helpClosed {
		t.Fatalf("state %d after Help with no Run, want closed", s)
	}
	g.help.open()
	g.help.state.Store(helpAsked)
	g.Help(func() bool { return true })
	if s := g.help.state.Load(); s != helpOpen {
		t.Fatalf("state %d after a lend answered with no help, want open", s)
	}
}
