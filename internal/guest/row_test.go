package guest

import (
	"fmt"
	"sync"
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

// splitRow hands the row kernel each step as two ranges, [Lo, k) and
// then [k, Hi), clipped to the step's range.
type splitRow struct {
	AsNetwork
	k int
}

func (s splitRow) StepRow(r *network.Row) bool {
	k := min(max(s.k, r.Lo), r.Hi)
	lower, upper := *r, *r
	lower.Hi, upper.Lo = k, k
	return s.AsNetwork.StepRow(&lower) && s.AsNetwork.StepRow(&upper)
}

// checkRowKernel steps MixCA through its row kernel, split at node k,
// and through the per-vertex path side by side, and fails at the first
// step after which an output, an addressed cell or any memory word
// differs.
func checkRowKernel(t testing.TB, d, side, m, steps int, seed uint64, k int) {
	t.Helper()
	prog, topo := mixcaOn(d, side, seed)
	row := network.NewGuest(topo, m, splitRow{prog, k})
	ref := network.NewGuest(topo, m, perVertex{prog})
	name := fmt.Sprintf("d=%d side=%d m=%d seed=%d split=%d", d, side, m, seed, k)
	for s := 1; s <= steps; s++ {
		row.Step()
		ref.Step()
		for v, w := range ref.Outputs() {
			if got := row.Outputs()[v]; got != w {
				t.Fatalf("%s: step %d node %d output %d, per-vertex %d", name, s, v, got, w)
			}
			if got, want := row.Addr(v), ref.Addr(v); got != want {
				t.Fatalf("%s: step %d node %d addressed %d, per-vertex %d", name, s, v, got, want)
			}
		}
		for i, w := range ref.Memory() {
			if got := row.Memory()[i]; got != w {
				t.Fatalf("%s: step %d memory word %d = %d, per-vertex %d", name, s, i, got, w)
			}
		}
	}
}

// TestRowKernelMatchesPerVertex pins the row kernel's contract: MixCA's
// StepRow, over [0, k) and then [k, n), leaves outputs, addresses and
// memory exactly as the per-vertex Address/Step2 path does, after every
// step. Sides 1, 2 and 3 put every node on the boundary; the larger side
// adds an interior. The split points k = 0 and k = n are whole rows.
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
					for _, k := range []int{0, n / 3, n} {
						checkRowKernel(t, d, side, m, steps, seed, k)
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
	f.Fuzz(func(t *testing.T, d, side, m, steps uint8, seed uint64, split uint16) {
		dd := 1 + int(d)%3
		maxSide := []int{0, 257, 17, 9}[dd]
		sd := 1 + int(side)%maxSide
		n := sd
		for i := 1; i < dd; i++ {
			n *= sd
		}
		checkRowKernel(t, dd, sd, 1+int(m)%7, 1+int(steps)%48, seed, int(split)%(n+1))
	})
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

// BenchmarkGuestStep times one guest step of MixCA (m = 4) at the three
// shapes a sweep-heavy op replays, through the row kernel, through the
// row kernel with each step split with a helper goroutine (the split
// path a sweep's idle worker runs), and through the per-vertex path, and
// reports the wall per vertex.
func BenchmarkGuestStep(b *testing.B) {
	for _, c := range []struct{ d, side int }{{1, 4096}, {2, 32}, {3, 16}} {
		prog, topo := mixcaOn(c.d, c.side, 5)
		n := topo.Nodes()
		for _, path := range []struct {
			name string
			prog network.Program
		}{{"row", prog}, {"split", prog}, {"vertex", perVertex{prog}}} {
			b.Run(fmt.Sprintf("d=%d/%s", c.d, path.name), func(b *testing.B) {
				g := network.NewGuest(topo, 4, path.prog)
				h := new(oneHelper)
				if path.name == "split" {
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
