package network

import (
	"testing"

	"bsmp/internal/cost"
)

// TestRunGuestEventsMatchesPure pins the event-driven executor's
// outputs and final memories against the functional ground truth for
// all dimensions, with and without a delay model: delays move virtual
// times, never values.
func TestRunGuestEventsMatchesPure(t *testing.T) {
	for _, tc := range []struct{ d, n, m, steps int }{
		{1, 8, 1, 8},
		{1, 8, 4, 12},
		{2, 16, 1, 4},
		{2, 16, 3, 6},
		{3, 27, 2, 5},
	} {
		for _, theta := range []float64{1, 2.5} {
			ma := New(tc.d, tc.n, tc.n, tc.m)
			dm, err := cost.NewThetaModel(theta, 42)
			if err != nil {
				t.Fatal(err)
			}
			ma.Bank.SetDelayModel(dm)
			got, elapsed := RunGuestEvents(ma, caProg{}, tc.steps)
			want, mems := RunGuestPure(tc.d, tc.n, tc.m, tc.steps, caProg{})
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%+v theta=%v: node %d: got %d, want %d", tc, theta, i, got[i], want[i])
				}
			}
			for v := 0; v < tc.n; v++ {
				for a := 0; a < ma.NodeMemory(); a++ {
					if ma.Nodes[v].Peek(a) != mems[v][a] {
						t.Fatalf("%+v theta=%v: node %d cell %d mismatch", tc, theta, v, a)
					}
				}
			}
			if elapsed <= 0 {
				t.Fatalf("%+v theta=%v: elapsed %v", tc, theta, elapsed)
			}
		}
	}
}

// TestRunGuestEventsLockstepBound checks the asynchronous-advantage
// direction: without delays, dropping the per-step barrier can only
// help — the event-driven makespan never exceeds the synchronous one.
func TestRunGuestEventsLockstepBound(t *testing.T) {
	for _, tc := range []struct{ d, n, m, steps int }{
		{1, 16, 4, 16},
		{2, 16, 2, 8},
	} {
		sync := New(tc.d, tc.n, tc.n, tc.m)
		_, tSync, _ := RunGuest(sync, caProg{}, tc.steps, nil)
		ev := New(tc.d, tc.n, tc.n, tc.m)
		_, tEv := RunGuestEvents(ev, caProg{}, tc.steps)
		if tEv > tSync {
			t.Fatalf("%+v: event makespan %v > synchronous %v", tc, tEv, tSync)
		}
		if tEv <= 0 {
			t.Fatalf("%+v: event makespan %v", tc, tEv)
		}
	}
}

// TestRunGuestEventsMonotoneInTheta checks graceful degradation at the
// network layer: with a fixed seed, stretching the delay bound never
// shrinks the makespan.
func TestRunGuestEventsMonotoneInTheta(t *testing.T) {
	run := func(theta float64) cost.Time {
		ma := New(2, 16, 16, 2)
		dm, err := cost.NewThetaModel(theta, 7)
		if err != nil {
			t.Fatal(err)
		}
		ma.Bank.SetDelayModel(dm)
		_, el := RunGuestEvents(ma, caProg{}, 12)
		return el
	}
	prev := cost.Time(0)
	for _, theta := range []float64{1, 1.5, 2, 4, 8} {
		el := run(theta)
		if el < prev {
			t.Fatalf("theta=%v: makespan %v < previous %v", theta, el, prev)
		}
		prev = el
	}
	// And Θ = 1 through the model equals no model at all.
	ma := New(2, 16, 16, 2)
	_, plain := RunGuestEvents(ma, caProg{}, 12)
	if got := run(1); got != plain {
		t.Fatalf("theta=1 makespan %v != modelless %v", got, plain)
	}
}

// TestRunGuestEventsDeterministic checks that two runs with the same
// seed and Θ produce identical per-node virtual clocks.
func TestRunGuestEventsDeterministic(t *testing.T) {
	run := func() *Machine {
		ma := New(1, 16, 16, 4)
		dm, err := cost.NewThetaModel(3, 1234)
		if err != nil {
			t.Fatal(err)
		}
		ma.Bank.SetDelayModel(dm)
		RunGuestEvents(ma, caProg{}, 10)
		return ma
	}
	a, b := run(), run()
	for i := 0; i < a.P; i++ {
		if a.Bank.Proc(i).Now() != b.Bank.Proc(i).Now() {
			t.Fatalf("node %d clock differs across identical runs", i)
		}
	}
}

func TestRunGuestEventsNeedsFullParallel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunGuestEvents on P < N did not panic")
		}
	}()
	ma := New(1, 8, 2, 1)
	RunGuestEvents(ma, caProg{}, 1)
}
