package network

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"bsmp/internal/hram"
	"bsmp/internal/topology"
)

// caProg is a width-1-memory cellular-automaton-like program with exactly
// verifiable integer dynamics.
type caProg struct{}

func (caProg) Init(node int, mem []hram.Word) hram.Word {
	for i := range mem {
		mem[i] = hram.Word(node*31+i) | 1
	}
	return hram.Word(node)*2654435761 + 99
}

func (caProg) Address(node, step, memSize int) int {
	return (node + step) % memSize
}

func (caProg) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	var s hram.Word = cell
	for i, p := range prev {
		s = s*31 + p*hram.Word(i+1)
	}
	return s + hram.Word(step), s ^ cell
}

// caRowProg is caProg with a row path: StepRow steps the row's range
// with caProg's own arithmetic, over the guest's neighbor offsets.
type caRowProg struct{ caProg }

func (caRowProg) StepRow(r *Row) bool {
	for v := r.Lo; v < r.Hi; v++ {
		a := (v + r.T) % r.M
		c := v*r.M + a
		cell := r.Mem[c]
		s := cell*31 + r.Prev[v]
		for i, u := range r.Adj[r.Off[v]:r.Off[v+1]] {
			s = s*31 + r.Prev[u]*hram.Word(i+2)
		}
		r.Out[v], r.Mem[c], r.Addr[v] = s+hram.Word(r.T), s^cell, a
	}
	return true
}

// caDeclineProg is caProg with a row path that declines every step, so
// the guest falls back to the per-vertex loop.
type caDeclineProg struct{ caProg }

func (caDeclineProg) StepRow(*Row) bool { return false }

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad d":        func() { New(4, 8, 8, 1) },
		"p > n":        func() { New(1, 4, 8, 1) },
		"p zero":       func() { New(1, 8, 0, 1) },
		"m zero":       func() { New(1, 8, 8, 0) },
		"p not divide": func() { New(1, 9, 2, 1) },
		"d2 p square":  func() { New(2, 16, 8, 1) },
		"d2 n square":  func() { New(2, 12, 4, 1) },
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

func TestGeometry1D(t *testing.T) {
	ma := New(1, 16, 4, 2)
	if ma.NodeMemory() != 8 {
		t.Errorf("NodeMemory = %d, want 8", ma.NodeMemory())
	}
	if ma.Spacing() != 4 {
		t.Errorf("Spacing = %v, want 4", ma.Spacing())
	}
	if d := ma.Distance(0, 3); d != 12 {
		t.Errorf("Distance(0,3) = %v, want 12", d)
	}
	nb := ma.Neighbors(0, nil)
	if len(nb) != 1 || nb[0] != 1 {
		t.Errorf("Neighbors(0) = %v, want [1]", nb)
	}
	nb = ma.Neighbors(2, nil)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Errorf("Neighbors(2) = %v, want [1 3]", nb)
	}
}

func TestGeometry2D(t *testing.T) {
	ma := New(2, 64, 16, 1)
	if ma.Side() != 4 {
		t.Fatalf("Side = %d, want 4", ma.Side())
	}
	if ma.Spacing() != 2 {
		t.Errorf("Spacing = %v, want (64/16)^(1/2) = 2", ma.Spacing())
	}
	// Node 5 is at (1, 1).
	gx, gy := ma.Coord(5)
	if gx != 1 || gy != 1 {
		t.Errorf("Coord(5) = (%d,%d), want (1,1)", gx, gy)
	}
	if ma.Index(gx, gy) != 5 {
		t.Errorf("Index(Coord(5)) != 5")
	}
	if d := ma.Distance(0, 5); d != 4 {
		t.Errorf("Distance(0,5) = %v, want 4", d)
	}
	nb := ma.Neighbors(5, nil)
	want := []int{4, 6, 1, 9}
	if len(nb) != 4 {
		t.Fatalf("Neighbors(5) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(5) = %v, want %v", nb, want)
		}
	}
	// Corner has 2 neighbors.
	if nb := ma.Neighbors(0, nil); len(nb) != 2 {
		t.Errorf("corner Neighbors = %v, want 2 entries", nb)
	}
}

// TestGuestMeshStencil: NewGuest hands row kernels the mesh's side
// exactly when the neighbor lists are its clipped stencil: on every
// mesh and on a fault mask that kills no node, but not on a mask with
// dead nodes, and meshStencil refuses lists with one entry changed or
// a wrong side.
func TestGuestMeshStencil(t *testing.T) {
	for d := 1; d <= 3; d++ {
		for _, side := range []int{1, 2, 3, 5} {
			n := side
			for i := 1; i < d; i++ {
				n *= side
			}
			mesh := topology.NewMesh(d, n, n)
			g := NewGuest(mesh, 1, caProg{})
			if g.d != d || g.side != side {
				t.Fatalf("d=%d side=%d: guest shape (%d, %d)", d, side, g.d, g.side)
			}
			if meshStencil(d, side+1, g.off, g.adj) {
				t.Fatalf("d=%d side=%d: lists taken for side %d", d, side, side+1)
			}
			for i := range g.adj {
				adj := append([]int32(nil), g.adj...)
				adj[i] = (adj[i] + 1) % int32(n)
				if meshStencil(d, side, g.off, adj) {
					t.Fatalf("d=%d side=%d: stencil with entry %d changed", d, side, i)
				}
			}
			for _, density := range []float64{0, 0.5} {
				masked, err := topology.NewFaultMask(mesh, density, 3, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := side
				if masked.DeadProcs() > 0 {
					want = 0
				}
				if g := NewGuest(masked, 1, caProg{}); g.side != want {
					t.Fatalf("d=%d side=%d density %v (%d dead): side %d, want %d", d, side, density, masked.DeadProcs(), g.side, want)
				}
			}
		}
	}
}

func TestSendChargesDistance(t *testing.T) {
	ma := New(1, 12, 4, 1)
	ma.Send(0, 2, 1)
	// Distance(0,2) = 2*3 = 6; arrival = 1 (send) + 6.
	if got := ma.Bank.Proc(2).Now(); got != 7 {
		t.Errorf("receiver clock %v, want 7", got)
	}
}

func TestRunGuestNeedsFullParallel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunGuest on P < N did not panic")
		}
	}()
	ma := New(1, 8, 2, 1)
	RunGuest(ma, caProg{}, 1, nil)
}

func TestRunGuestMatchesPure(t *testing.T) {
	for _, tc := range []struct{ d, n, m, steps int }{
		{1, 8, 1, 8},
		{1, 8, 4, 12},
		{2, 16, 1, 4},
		{2, 16, 3, 6},
	} {
		ma := New(tc.d, tc.n, tc.n, tc.m)
		got, elapsed, _ := RunGuest(ma, caProg{}, tc.steps, nil)
		want, _ := RunGuestPure(tc.d, tc.n, tc.m, tc.steps, caProg{})
		if len(got) != len(want) {
			t.Fatalf("%+v: length mismatch", tc)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: node %d: got %d, want %d", tc, i, got[i], want[i])
			}
		}
		if elapsed <= 0 {
			t.Fatalf("%+v: elapsed %v", tc, elapsed)
		}
	}
}

func TestRunGuestTimeLinearInSteps(t *testing.T) {
	// The guest machine runs in Θ(1) per step: Tn(2T) ≈ 2·Tn(T).
	run := func(steps int) float64 {
		ma := New(1, 16, 16, 4)
		_, el, _ := RunGuest(ma, caProg{}, steps, nil)
		return float64(el)
	}
	t8, t16 := run(8), run(16)
	ratio := t16 / t8
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling steps scaled time by %v, want ~2", ratio)
	}
}

func TestRunGuestStepCostConstantInN(t *testing.T) {
	// Per the paper's premise, a guest step costs O(1) regardless of n:
	// worst-case private access (f(m)=1) is of the order of the neighbor
	// exchange (spacing 1).
	perStep := func(n int) float64 {
		ma := New(1, n, n, 4)
		_, el, _ := RunGuest(ma, caProg{}, 8, nil)
		return float64(el) / 8
	}
	a, b := perStep(8), perStep(64)
	if b/a > 1.5 {
		t.Errorf("per-step guest cost grew with n: %v -> %v", a, b)
	}
}

func TestRunGuestFinalMemoriesMatch(t *testing.T) {
	// The machine's H-RAM memories after RunGuest equal the pure run's.
	d, n, m, steps := 1, 8, 4, 10
	ma := New(d, n, n, m)
	RunGuest(ma, caProg{}, steps, nil)
	_, mems := RunGuestPure(d, n, m, steps, caProg{})
	for v := 0; v < n; v++ {
		for a := 0; a < ma.NodeMemory(); a++ {
			if got, want := ma.Nodes[v].Peek(a), mems[v*m+a]; got != want {
				t.Fatalf("node %d cell %d: got %d, want %d", v, a, got, want)
			}
		}
	}
}

// Property: Distance is a metric on node indices (symmetry, identity,
// triangle inequality) for all three dimensions. The machine delegates
// to its topology, so this pins the seam; the topology package runs the
// same property over the bare meshes and the FaultMask decorator.
func TestPropertyDistanceMetric(t *testing.T) {
	machines := []*Machine{New(1, 16, 16, 1), New(2, 64, 16, 1), New(3, 512, 64, 1)}
	f := func(raw [3]uint8, which uint8) bool {
		ma := machines[int(which)%len(machines)]
		i := int(raw[0]) % ma.P
		j := int(raw[1]) % ma.P
		k := int(raw[2]) % ma.P
		dij, dji := ma.Distance(i, j), ma.Distance(j, i)
		if dij != dji {
			return false
		}
		if (i == j) != (dij == 0) {
			return false
		}
		return ma.Distance(i, k) <= dij+ma.Distance(j, k)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Index and Coord are inverse bijections.
func TestPropertyIndexCoordInverse(t *testing.T) {
	f := func(raw uint8, d2 bool) bool {
		var ma *Machine
		if d2 {
			ma = New(2, 144, 36, 1)
		} else {
			ma = New(1, 20, 20, 1)
		}
		i := int(raw) % ma.P
		gx, gy := ma.Coord(i)
		return ma.Index(gx, gy) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGuestStepperLaws pins the one guest step loop and its drivers,
// on the per-vertex path (caProg), the row path (caRowProg) and a row
// path that declines every step (caDeclineProg): the pure replay of
// each equals caProg's, outputs and memories; the accounted run
// reproduces the pure replay (outputs and every node's final H-RAM
// memory); a live always-nil hook is polled once per step with n and
// changes no output, clock or ledger; a hook failing before step k
// returns its error with every clock where a (k-1)-step run leaves it;
// and stepping k steps then the rest equals stepping at once, which is
// what lets a replay resume from a held state.
func TestGuestStepperLaws(t *testing.T) {
	const steps, k = 12, 5
	for _, d := range []int{1, 2, 3} {
		n := []int{0, 16, 16, 27}[d]
		for _, m := range []int{1, 4} {
			wantOut, wantMem := RunGuestPure(d, n, m, steps, caProg{})
			for _, prog := range []Program{caProg{}, caRowProg{}, caDeclineProg{}} {
				name := fmt.Sprintf("%T/d=%d/m=%d", prog, d, m)
				checkStepperLaws(t, name, prog, d, n, m, steps, k, wantOut, wantMem, nil)
			}
		}
	}
}

// checkStepperLaws asserts TestGuestStepperLaws' laws for one program
// against caProg's pure replay (wantOut, wantMem). The resumed guest
// takes its helpers from lend (none when nil).
func checkStepperLaws(t *testing.T, name string, prog Program, d, n, m, steps, k int, wantOut []hram.Word, wantMem []hram.Word, lend Helpers) {
	t.Helper()
	pureOut, pureMem := RunGuestPure(d, n, m, steps, prog)
	for v := 0; v < n; v++ {
		if pureOut[v] != wantOut[v] {
			t.Fatalf("%s: node %d pure output %d, caProg %d", name, v, pureOut[v], wantOut[v])
		}
		for a := 0; a < m; a++ {
			if pureMem[v*m+a] != wantMem[v*m+a] {
				t.Fatalf("%s: node %d pure cell %d = %d, caProg %d", name, v, a, pureMem[v*m+a], wantMem[v*m+a])
			}
		}
	}

	base := New(d, n, n, m)
	out, elapsed, err := RunGuest(base, prog, steps, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for v := 0; v < n; v++ {
		if out[v] != wantOut[v] {
			t.Fatalf("%s: node %d output %d, pure %d", name, v, out[v], wantOut[v])
		}
		for a := 0; a < m; a++ {
			if got := base.Nodes[v].Peek(a); got != wantMem[v*m+a] {
				t.Fatalf("%s: node %d cell %d = %d, pure %d", name, v, a, got, wantMem[v*m+a])
			}
		}
	}

	hooked := New(d, n, n, m)
	calls := 0
	outH, elapsedH, err := RunGuest(hooked, prog, steps, func(vertices int) error {
		calls++
		if vertices != n {
			t.Fatalf("%s: hook vertices = %d, want %d", name, vertices, n)
		}
		return nil
	})
	if err != nil || calls != steps || elapsedH != elapsed {
		t.Fatalf("%s: hooked run err %v, %d polls (want %d), elapsed %v (want %v)",
			name, err, calls, steps, elapsedH, elapsed)
	}
	if hooked.Bank.Ledgers() != base.Bank.Ledgers() {
		t.Fatalf("%s: hooked ledger %v, unhooked %v", name, hooked.Bank.Ledgers(), base.Bank.Ledgers())
	}
	for v := 0; v < n; v++ {
		if outH[v] != out[v] || hooked.Bank.Proc(v).Now() != base.Bank.Proc(v).Now() {
			t.Fatalf("%s: node %d differs under a nil-returning hook", name, v)
		}
	}

	stop := errors.New("stop")
	failed := New(d, n, n, m)
	polls := 0
	if _, _, err := RunGuest(failed, prog, steps, func(int) error {
		if polls++; polls == k {
			return stop
		}
		return nil
	}); err != stop {
		t.Fatalf("%s: failing hook returned %v, want %v", name, err, stop)
	}
	short := New(d, n, n, m)
	if _, _, err := RunGuest(short, prog, k-1, nil); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for v := 0; v < n; v++ {
		if failed.Bank.Proc(v).Now() != short.Bank.Proc(v).Now() {
			t.Fatalf("%s: node %d clock %v after a failure before step %d, want %v",
				name, v, failed.Bank.Proc(v).Now(), k, short.Bank.Proc(v).Now())
		}
	}

	g := NewGuest(topology.NewMesh(d, n, n), m, prog)
	g.SetHelpers(lend)
	if err := g.Run(k, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(steps, nil); err != nil || g.Steps() != steps {
		t.Fatalf("%s: resumed run err %v at step %d", name, err, g.Steps())
	}
	for v := 0; v < n; v++ {
		if g.Outputs()[v] != wantOut[v] {
			t.Fatalf("%s: resumed node %d output differs", name, v)
		}
	}
	for i, w := range g.Memory() {
		if w != wantMem[i] {
			t.Fatalf("%s: resumed memory word %d differs", name, i)
		}
	}
}
