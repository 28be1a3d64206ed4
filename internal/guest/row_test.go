package guest

import (
	"fmt"
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

// checkRowKernel steps MixCA through its row kernel and through the
// per-vertex path side by side, and fails at the first step after which
// an output, an addressed cell or any memory word differs.
func checkRowKernel(t testing.TB, d, side, m, steps int, seed uint64) {
	t.Helper()
	prog, topo := mixcaOn(d, side, seed)
	row := network.NewGuest(topo, m, prog)
	ref := network.NewGuest(topo, m, perVertex{prog})
	name := fmt.Sprintf("d=%d side=%d m=%d seed=%d", d, side, m, seed)
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
// StepRow leaves outputs, addresses and memory exactly as the per-vertex
// Address/Step2 path does, after every step. Sides 1, 2 and 3 put every
// node on the boundary; the larger side adds an interior.
func TestRowKernelMatchesPerVertex(t *testing.T) {
	const steps = 32
	large := []int{0, 257, 17, 9}
	for d := 1; d <= 3; d++ {
		for _, side := range []int{1, 2, 3, large[d]} {
			for _, m := range []int{1, 2, 3, 4, 7} {
				for _, seed := range []uint64{0, 7} {
					checkRowKernel(t, d, side, m, steps, seed)
				}
			}
		}
	}
}

// FuzzRowKernel draws (d, side, m, steps, seed) within the law test's
// bounds and asserts the same law.
func FuzzRowKernel(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint64(0))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(31), uint64(7))
	f.Add(uint8(2), uint8(8), uint8(6), uint8(40), uint64(1801))
	f.Fuzz(func(t *testing.T, d, side, m, steps uint8, seed uint64) {
		dd := 1 + int(d)%3
		maxSide := []int{0, 257, 17, 9}[dd]
		checkRowKernel(t, dd, 1+int(side)%maxSide, 1+int(m)%7, 1+int(steps)%48, seed)
	})
}

// BenchmarkGuestStep times one guest step of MixCA (m = 4) at the three
// shapes a sweep-heavy op replays, through the row kernel and through
// the per-vertex path, and reports the cost per vertex.
func BenchmarkGuestStep(b *testing.B) {
	for _, c := range []struct{ d, side int }{{1, 4096}, {2, 32}, {3, 16}} {
		prog, topo := mixcaOn(c.d, c.side, 5)
		n := topo.Nodes()
		for _, path := range []struct {
			name string
			prog network.Program
		}{{"row", prog}, {"vertex", perVertex{prog}}} {
			b.Run(fmt.Sprintf("d=%d/%s", c.d, path.name), func(b *testing.B) {
				g := network.NewGuest(topo, 4, path.prog)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g.Step()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vertex")
			})
		}
	}
}
