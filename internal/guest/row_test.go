package guest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bsmp/internal/network"
	"bsmp/internal/topology"
)

// perVertex hides a program's StepRow: it embeds only network.Program,
// so the guest stepper takes its per-vertex path.
type perVertex struct{ network.Program }

// mixcaOn is MixCA on the d-dimensional mesh of the given side, with the
// grid geometry the served and battery runs give it.
func mixcaOn(d, side int, seed uint64) (AsNetwork, topology.Topology) {
	prog, n := AsNetwork{G: MixCA{Seed: seed}}, side
	switch d {
	case 2:
		prog.Side, n = side, side*side
	case 3:
		prog.CubeSide, n = side, side*side*side
	}
	return prog, topology.NewMesh(d, n, n)
}

// offsets is MixCA with Row.Side cleared before its kernel runs: every
// node goes through the Adj fold, the path of a guest with no stencil.
type offsets struct{ AsNetwork }

func (o offsets) StepRow(r *network.Row) bool {
	adjOnly := *r
	adjOnly.Side = 0
	return o.AsNetwork.StepRow(&adjOnly)
}

// rowProgram is a network program with a row path.
type rowProgram interface {
	network.Program
	network.RowProgram
}

// splitRow hands the row kernel each step as two ranges, [Lo, k) and
// then [k, Hi), clipped to the step's range, and keeps the Row.Side it
// was last handed.
type splitRow struct {
	rowProgram
	k, side int
}

func (s *splitRow) StepRow(r *network.Row) bool {
	s.side = r.Side
	k := min(max(s.k, r.Lo), r.Hi)
	lower, upper := *r, *r
	lower.Hi, upper.Lo = k, k
	return s.rowProgram.StepRow(&lower) && s.rowProgram.StepRow(&upper)
}

// sameState reports the first output, addressed cell or memory word in
// which guest g differs from ref, or nil when they agree.
func sameState(g, ref *network.Guest) error {
	for v, w := range ref.Outputs() {
		if got := g.Outputs()[v]; got != w {
			return fmt.Errorf("node %d output %d, per-vertex %d", v, got, w)
		}
		if got, want := g.Addr(v), ref.Addr(v); got != want {
			return fmt.Errorf("node %d addressed %d, per-vertex %d", v, got, want)
		}
	}
	for i, w := range ref.Memory() {
		if got := g.Memory()[i]; got != w {
			return fmt.Errorf("memory word %d = %d, per-vertex %d", i, got, w)
		}
	}
	return nil
}

// checkSteps steps g and its per-vertex twin ref side by side and fails
// at the first step after which they differ.
func checkSteps(t testing.TB, name string, g, ref *network.Guest, steps int) {
	t.Helper()
	for s := 1; s <= steps; s++ {
		g.Step()
		ref.Step()
		if err := sameState(g, ref); err != nil {
			t.Fatalf("%s: step %d: %v", name, s, err)
		}
	}
}

// checkRowKernel steps MixCA through its row kernel, split at node k,
// and through the per-vertex path side by side, and fails at the first
// step after which an output, an addressed cell or any memory word
// differs. With adj set the kernel runs as its offsets twin. The mesh
// guest must hand the kernel its side, so that the stencil path runs.
func checkRowKernel(t testing.TB, d, side, m, steps int, seed uint64, k int, adj bool) {
	t.Helper()
	prog, topo := mixcaOn(d, side, seed)
	var kernel rowProgram = prog
	if adj {
		kernel = offsets{prog}
	}
	split := &splitRow{rowProgram: kernel, k: k}
	row := network.NewGuest(topo, m, split)
	ref := network.NewGuest(topo, m, perVertex{prog})
	name := fmt.Sprintf("d=%d side=%d m=%d seed=%d split=%d offsets=%v", d, side, m, seed, k, adj)
	checkSteps(t, name, row, ref, steps)
	if split.side != side {
		t.Fatalf("%s: kernel handed Side %d, want the mesh side %d", name, split.side, side)
	}
}

// TestRowKernelMatchesPerVertex pins the row kernel's contract: MixCA's
// StepRow, over [0, k) and then [k, n), leaves outputs, addresses and
// memory exactly as the per-vertex Address/Step2 path does, after every
// step, on the mesh stencil and as its offsets twin. Sides 1, 2 and 3
// put every node on the boundary; the larger side adds an interior. The
// split points k = 0 and k = n are whole rows (splitRow clips k to the
// row); the others start and end ranges at a line's first, last and
// middle node.
func TestRowKernelMatchesPerVertex(t *testing.T) {
	const steps = 32
	large := []int{0, 257, 17, 9}
	for d := 1; d <= 3; d++ {
		for _, side := range []int{1, 2, 3, large[d]} {
			n := side
			for i := 1; i < d; i++ {
				n *= side
			}
			for _, m := range []int{1, 2, 3, 4, 7} {
				for _, seed := range []uint64{0, 7} {
					for _, k := range []int{0, side - 1, side, side + 1, n / 3, n / 2, n - side, n} {
						for _, adj := range []bool{false, true} {
							checkRowKernel(t, d, side, m, steps, seed, k, adj)
						}
					}
				}
			}
		}
	}
}

// FuzzRowKernel draws (d, side, m, steps, seed) within the law test's
// bounds and a split point k in [0, n], and asserts the same law.
func FuzzRowKernel(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint64(0), uint16(0))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(31), uint64(7), uint16(5))
	f.Add(uint8(2), uint8(8), uint8(6), uint8(40), uint64(1801), uint16(400))
	f.Add(uint8(2), uint8(8), uint8(3), uint8(24), uint64(11), uint16(364)) // d = 3, side 9: node 364 is x = 4 of its line
	f.Fuzz(func(t *testing.T, d, side, m, steps uint8, seed uint64, split uint16) {
		dd := 1 + int(d)%3
		maxSide := []int{0, 257, 17, 9}[dd]
		sd := 1 + int(side)%maxSide
		n := sd
		for i := 1; i < dd; i++ {
			n *= sd
		}
		checkRowKernel(t, dd, sd, 1+int(m)%7, 1+int(steps)%48, seed, int(split)%(n+1), false)
	})
}

// TestRowKernelFaultMask builds MixCA's guest on fault-masked meshes with
// dead nodes: their neighbor lists are not the mesh stencil, so the
// kernel must be handed no side, and its Adj fold must still match the
// per-vertex path after every step.
func TestRowKernelFaultMask(t *testing.T) {
	const steps, m = 24, 3
	for _, c := range []struct{ d, side int }{{1, 257}, {2, 17}, {3, 9}} {
		for _, seed := range []uint64{1, 7} {
			d, side := c.d, c.side
			prog, mesh := mixcaOn(d, side, seed)
			topo, err := topology.NewFaultMask(mesh, 0.2, seed, m)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("d=%d side=%d seed=%d", d, side, seed)
			if topo.DeadProcs() == 0 {
				t.Fatalf("%s: the mask killed no node", name)
			}
			split := &splitRow{rowProgram: prog, k: topo.Nodes() / 2, side: -1}
			row := network.NewGuest(topo, m, split)
			checkSteps(t, name, row, network.NewGuest(topo, m, perVertex{prog}), steps)
			if split.side != 0 {
				t.Fatalf("%s: kernel handed Side %d on a masked mesh, want 0", name, split.side)
			}
		}
	}
}

// handoff makes every split step of MixCA's kernel run on two
// goroutines at once: the lower half waits until the helper has begun
// the upper half of the same step, so the helper takes every split step
// on any number of Ps, and the race detector sees a write either half
// makes outside its range.
type handoff struct {
	AsNetwork
	upper *atomic.Int64 // the last step whose upper half began
}

func (h handoff) StepRow(r *network.Row) bool {
	if r.Lo > 0 {
		h.upper.Store(int64(r.T))
	} else if r.Hi < len(r.Out) {
		for h.upper.Load() != int64(r.T) {
			runtime.Gosched()
		}
	}
	return h.AsNetwork.StepRow(r)
}

// TestRowKernelHelped steps MixCA's kernel split across two goroutines,
// the stepping one and a helper lent by oneHelper, at d = 1, 2 and 3
// with n at least SplitMin and both halves ending mid-line, and compares
// it with the per-vertex path after every step.
func TestRowKernelHelped(t *testing.T) {
	const steps, m = 24, 3
	for _, c := range []struct{ d, side int }{{1, 1031}, {2, 33}, {3, 11}} {
		d, side := c.d, c.side
		prog, topo := mixcaOn(d, side, 3)
		if topo.Nodes() < network.SplitMin {
			t.Fatalf("d=%d: %d nodes, below SplitMin", d, topo.Nodes())
		}
		g := network.NewGuest(topo, m, handoff{prog, new(atomic.Int64)})
		ref := network.NewGuest(topo, m, perVertex{prog})
		h := new(oneHelper)
		g.SetHelpers(h)
		check := func(int) error {
			for ref.Steps() < g.Steps() {
				ref.Step()
			}
			if err := sameState(g, ref); err != nil {
				return fmt.Errorf("step %d: %v", g.Steps(), err)
			}
			runtime.Gosched() // on one P, lets a lent helper attach
			return nil
		}
		err := g.Run(steps, check)
		h.wg.Wait()
		if err == nil {
			err = check(0)
		}
		if err != nil {
			t.Fatalf("d=%d side=%d: %v", d, side, err)
		}
		if g.Helped() == 0 {
			t.Fatalf("d=%d side=%d: no step was split across goroutines", d, side)
		}
	}
}

// oneHelper lends a guest one helper goroutine per lend, which stays
// until the Run returns.
type oneHelper struct{ wg sync.WaitGroup }

func (h *oneHelper) Lend(g *network.Guest) bool {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		g.Help(func() bool { return false })
	}()
	return true
}

// BenchmarkGuestStep times one guest step of MixCA (m = 4) and reports
// the wall per vertex. At the three shapes a sweep-heavy op replays (d = 1
// at n = 4096, d = 2 at side 32, d = 3 at side 16) it runs every path:
// the row kernel, the row kernel with each step split with a helper
// goroutine (the split path a sweep's idle worker runs), the kernel's Adj
// fold alone (its offsets twin, the path of a guest with no stencil) and
// the per-vertex path. The small meshes run-mix replays (d = 2 at side 8,
// d = 3 at sides 4 and 8), where most nodes are on the boundary, compare
// the row kernel with its fold; d = 1 at n = 1024 compares a lone and a
// helped step at network.SplitMin.
func BenchmarkGuestStep(b *testing.B) {
	all := []string{"row", "split", "offsets", "vertex"}
	for _, c := range []struct {
		name    string
		d, side int
		paths   []string
	}{
		{"d=1", 1, 4096, all}, {"d=2", 2, 32, all}, {"d=3", 3, 16, all},
		{"d=2/side=8", 2, 8, []string{"row", "offsets"}},
		{"d=3/side=4", 3, 4, []string{"row", "offsets"}},
		{"d=3/side=8", 3, 8, []string{"row", "offsets"}},
		{"d=1/n=1024", 1, 1024, []string{"row", "split"}},
	} {
		prog, topo := mixcaOn(c.d, c.side, 5)
		n := topo.Nodes()
		for _, path := range c.paths {
			var p network.Program = prog
			switch path {
			case "offsets":
				p = offsets{prog}
			case "vertex":
				p = perVertex{prog}
			}
			b.Run(c.name+"/"+path, func(b *testing.B) {
				g := network.NewGuest(topo, 4, p)
				h := new(oneHelper)
				if path == "split" {
					g.SetHelpers(h)
					g.Step() // a fresh guest asks once a step went through the row path
				}
				b.ResetTimer()
				if err := g.Run(g.Steps()+b.N, nil); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vertex")
				b.StopTimer()
				h.wg.Wait()
			})
		}
	}
}
