package exp

import (
	"fmt"
	"strings"

	"bsmp/internal/dag"
	"bsmp/internal/lattice"
)

// validatePartition checks that pieces exactly tile the parent and that
// their order is topological for graph g (Definition 4 of the paper).
// Piece ownership lives in a dense table over the parent's bounding box,
// walked in index order for the dependency check, so the first error
// reported is the same on every run. Predecessors outside that box —
// unbounded stencils such as unboundedCube reach past the parent — and
// predecessors outside the parent belong to no piece and are ignored.
func validatePartition(g dag.Graph, parent lattice.Domain, pieces []lattice.Domain) error {
	ix := lattice.IndexerFor(parent)
	owner := lattice.NewAddrTable(ix)
	total := 0
	for i, pc := range pieces {
		var fail error
		pc.Points(func(p lattice.Point) bool {
			if !parent.Contains(p) {
				fail = fmt.Errorf("piece %d point %v outside parent", i, p)
				return false
			}
			if j, dup := owner.Get(p); dup {
				fail = fmt.Errorf("point %v in pieces %d and %d", p, j, i)
				return false
			}
			owner.Set(p, i)
			total++
			return true
		})
		if fail != nil {
			return fail
		}
	}
	if total != parent.Size() {
		return fmt.Errorf("pieces cover %d of %d points", total, parent.Size())
	}
	var buf []lattice.Point
	for k := 0; k < ix.Len(); k++ {
		p := ix.Deindex(k)
		i, in := owner.Get(p)
		if !in {
			continue
		}
		buf = g.Preds(p, buf[:0])
		for _, q := range buf {
			if !ix.Contains(q) {
				continue
			}
			if j, in := owner.Get(q); in && j > i {
				return fmt.Errorf("dependency violation: %v (piece %d) needs %v (piece %d)", p, i, q, j)
			}
		}
	}
	return nil
}

// F1 reproduces Figure 1: the five-piece diamond partition of V.
func F1() (*Table, error) {
	t := &Table{
		ID:         "F1",
		Title:      "Partition of V into five full/truncated diamonds (d=1)",
		PaperClaim: "V = [0,n)² has an ordered topological partition (U1..U5); U3 is a full D(n)",
		Header:     []string{"n", "pieces", "central/|V|", "topological"},
	}
	for _, n := range []int{16, 64, 256} {
		pieces := lattice.FigureOnePartition(n)
		g := dag.NewLineGraph(n, n)
		err := validatePartition(g, g.Domain(), pieces)
		ok := "yes"
		if err != nil {
			ok = "NO: " + err.Error()
		}
		frac := float64(pieces[2].Size()) / float64(n*n)
		t.Rows = append(t.Rows, []string{d(n), d(len(pieces)), f2(frac), ok})
	}
	t.Notes = append(t.Notes, "central diamond measure n²/2 over |V| = n² gives the 0.50 column")
	return t, nil
}

// F2 reproduces Figure 2: the zig-zag bands of diamonds per processor.
func F2() (*Table, error) {
	t := &Table{
		ID:         "F2",
		Title:      "Zig-zag diamond bands per processor (d=1)",
		PaperClaim: "V decomposes into ~2p diamonds of type D(n/p) per processor band",
		Header:     []string{"n", "p", "s", "cells/band min..max", "covered"},
	}
	for _, c := range [][3]int{{16, 4, 4}, {64, 8, 8}, {256, 8, 32}} {
		n, p, s := c[0], c[1], c[2]
		bands := lattice.ZigZagBands(n, p, s)
		mn, mx, total := 1<<30, 0, 0
		for _, b := range bands {
			if len(b) < mn {
				mn = len(b)
			}
			if len(b) > mx {
				mx = len(b)
			}
			for _, cell := range b {
				total += cell.D.Size()
			}
		}
		cov := "yes"
		if total != n*n {
			cov = fmt.Sprintf("NO (%d/%d)", total, n*n)
		}
		t.Rows = append(t.Rows, []string{d(n), d(p), d(s), fmt.Sprintf("%d..%d", mn, mx), cov})
	}
	return t, nil
}

// F3 reproduces Figure 3: the recursive octahedron and tetrahedron
// decompositions.
func F3() (*Table, error) {
	t := &Table{
		ID:    "F3",
		Title: "Octahedron/tetrahedron recursive decomposition (d=2)",
		PaperClaim: "P(r) -> 6 P(r/2) + 8 W(r/2) with |P(r/2)|=|P|/8, |W(r/2)|=|P|/32; " +
			"W(r) -> 1 P(r/2) + 4 W(r/2) with |P(r/2)|=|W|/2, |W(r/2)|=|W|/8",
		Header: []string{"domain", "r", "children P+W", "size ratios", "topological"},
	}
	g := unboundedMesh{} // canonical P/W domains live off the machine grid
	for _, r := range []int{16, 32} {
		for _, kind := range []string{"P", "W"} {
			var dom lattice.Domain
			if kind == "P" {
				dom = lattice.FigureThreeOctahedron(r)
			} else {
				dom = lattice.FigureThreeTetrahedron(r)
			}
			kids := dom.Children()
			counts := lattice.KindCount(kids)
			err := validatePartition(g, dom, kids)
			ok := "yes"
			if err != nil {
				ok = "NO: " + err.Error()
			}
			var ratios []string
			seenKind := map[lattice.Kind]bool{}
			for _, b := range kids {
				if !seenKind[b.Kind()] {
					seenKind[b.Kind()] = true
					ratios = append(ratios, fmt.Sprintf("%s:1/%.1f",
						b.Kind(), float64(dom.Size())/float64(b.Size())))
				}
			}
			t.Rows = append(t.Rows, []string{
				kind, d(r),
				fmt.Sprintf("%dP+%dW", counts[lattice.Octahedron], counts[lattice.Tetrahedron]),
				strings.Join(ratios, " "), ok,
			})
		}
	}
	return t, nil
}

// F4 reproduces Figure 4: the partition of the d = 2 domain V into full
// and truncated octahedra/tetrahedra.
func F4() (*Table, error) {
	t := &Table{
		ID:    "F4",
		Title: "Partition of the cube V into octahedra/tetrahedra (d=2)",
		PaperClaim: "V has an ordered topological partition into full/truncated P and W instances " +
			"(the paper draws 17 pieces; tie-handling at the cube faces makes our count differ)",
		Header: []string{"side", "pieces", "P", "W", "topological"},
	}
	for _, side := range []int{8, 16, 32} {
		pieces := lattice.FigureFourPartition(side)
		g := dag.NewMeshGraph(side, side)
		counts := lattice.KindCount(pieces)
		err := validatePartition(g, g.Domain(), pieces)
		ok := "yes"
		if err != nil {
			ok = "NO: " + err.Error()
		}
		t.Rows = append(t.Rows, []string{d(side), d(len(pieces)),
			d(counts[lattice.Octahedron]), d(counts[lattice.Tetrahedron]), ok})
	}
	return t, nil
}

// unboundedMesh is the infinite d = 2 dag stencil, used to validate the
// canonical (unclipped) Figure 3 domains, whose points are not confined to
// any machine grid.
type unboundedMesh struct{}

func (unboundedMesh) Contains(lattice.Point) bool { return true }
func (unboundedMesh) Steps() int                  { return 1 << 30 }
func (unboundedMesh) Nodes() int                  { return 1 << 30 }

// Bounds is nominally unbounded; too large for a lattice.Indexer, so
// validatePartition indexes the parent domain's bounding box instead.
func (unboundedMesh) Bounds() lattice.Clip { return lattice.UnboundedClip() }

func (unboundedMesh) Preds(v lattice.Point, buf []lattice.Point) []lattice.Point {
	t := v.T - 1
	return append(buf,
		lattice.Point{X: v.X, Y: v.Y, T: t},
		lattice.Point{X: v.X - 1, Y: v.Y, T: t},
		lattice.Point{X: v.X + 1, Y: v.Y, T: t},
		lattice.Point{X: v.X, Y: v.Y - 1, T: t},
		lattice.Point{X: v.X, Y: v.Y + 1, T: t},
	)
}

func (unboundedMesh) Succs(v lattice.Point, buf []lattice.Point) []lattice.Point {
	t := v.T + 1
	return append(buf,
		lattice.Point{X: v.X, Y: v.Y, T: t},
		lattice.Point{X: v.X - 1, Y: v.Y, T: t},
		lattice.Point{X: v.X + 1, Y: v.Y, T: t},
		lattice.Point{X: v.X, Y: v.Y - 1, T: t},
		lattice.Point{X: v.X, Y: v.Y + 1, T: t},
	)
}

// Figures runs F1-F4 plus the d = 3 separator validation, serially.
func Figures() ([]*Table, error) {
	out := make([]*Table, 0, len(figures))
	for _, f := range figures {
		t, err := f.fig()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// RenderFigure1 draws the Figure 1 partition as an n × n character grid
// (x horizontal, t upward), labeling pieces 1-5.
func RenderFigure1(n int) string {
	pieces := lattice.FigureOnePartition(n)
	grid := make([][]byte, n)
	for t := range grid {
		grid[t] = []byte(strings.Repeat(".", n))
	}
	for i, pc := range pieces {
		lbl := byte('1' + i)
		pc.Points(func(p lattice.Point) bool {
			grid[p.T][p.X] = lbl
			return true
		})
	}
	var b strings.Builder
	for t := n - 1; t >= 0; t-- {
		b.Write(grid[t])
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderZigZag draws the band assignment of Figure 2: each vertex of V
// labeled by its owning processor (a-z cycled).
func RenderZigZag(n, p, s int) string {
	bands := lattice.ZigZagBands(n, p, s)
	grid := make([][]byte, n)
	for t := range grid {
		grid[t] = []byte(strings.Repeat(".", n))
	}
	for k, band := range bands {
		lbl := byte('a' + k%26)
		for _, cell := range band {
			cell.D.Points(func(pt lattice.Point) bool {
				grid[pt.T][pt.X] = lbl
				return true
			})
		}
	}
	var b strings.Builder
	for t := n - 1; t >= 0; t-- {
		b.Write(grid[t])
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure4Slice draws one time-slice of the Figure 4 partition:
// every mesh node labeled by the piece owning its vertex at time t.
func RenderFigure4Slice(side, t int) string {
	pieces := lattice.FigureFourPartition(side)
	grid := make([][]byte, side)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(".", side))
	}
	labels := "0123456789abcdefghijklmnopqrstuvwxyz"
	for i, pc := range pieces {
		lbl := labels[i%len(labels)]
		pc.Points(func(p lattice.Point) bool {
			if p.T == t {
				grid[p.Y][p.X] = lbl
			}
			return true
		})
	}
	var b strings.Builder
	for y := side - 1; y >= 0; y-- {
		b.Write(grid[y])
		b.WriteByte('\n')
	}
	return b.String()
}

// FD3 validates the d = 3 separator construction of the conclusions'
// conjecture — the analog of Figure 3 one dimension up.
func FD3() (*Table, error) {
	t := &Table{
		ID:    "F-D3",
		Title: "Four-dimensional separator decomposition (d=3 extension)",
		PaperClaim: "conclusions: a suitable topological separator for four-dimensional " +
			"domains is the critical step for extending Theorem 1 to d = 3",
		Header: []string{"r", "children", "central", "wedges", "topological"},
	}
	for _, r := range []int{8, 16} {
		b := lattice.CentralBox6(r)
		kids := b.Children()
		central := lattice.KindCount(kids)[lattice.Octahedron]
		err := validatePartition(unboundedCube{}, b, kids)
		ok := "yes"
		if err != nil {
			ok = "NO: " + err.Error()
		}
		t.Rows = append(t.Rows, []string{
			d(r), d(len(kids)), d(central), d(len(kids) - central), ok,
		})
	}
	t.Notes = append(t.Notes,
		"the 46-way split (10 central + 36 wedges) is the d = 3 counterpart of Figure 3's 6 P + 8 W",
		"preboundary Θ(|U|^(3/4)): the γ = d/(d+1) separator exponent — see lattice tests")
	return t, nil
}

// unboundedCube is the infinite d = 3 dag stencil.
type unboundedCube struct{}

func (unboundedCube) Contains(lattice.Point) bool { return true }
func (unboundedCube) Steps() int                  { return 1 << 30 }
func (unboundedCube) Nodes() int                  { return 1 << 30 }

// Bounds is nominally unbounded; too large for a lattice.Indexer, so
// validatePartition indexes the parent domain's bounding box instead.
func (unboundedCube) Bounds() lattice.Clip { return lattice.UnboundedClip() }

func (unboundedCube) Preds(v lattice.Point, buf []lattice.Point) []lattice.Point {
	t := v.T - 1
	return append(buf,
		lattice.Point{X: v.X, Y: v.Y, Z: v.Z, T: t},
		lattice.Point{X: v.X - 1, Y: v.Y, Z: v.Z, T: t},
		lattice.Point{X: v.X + 1, Y: v.Y, Z: v.Z, T: t},
		lattice.Point{X: v.X, Y: v.Y - 1, Z: v.Z, T: t},
		lattice.Point{X: v.X, Y: v.Y + 1, Z: v.Z, T: t},
		lattice.Point{X: v.X, Y: v.Y, Z: v.Z - 1, T: t},
		lattice.Point{X: v.X, Y: v.Y, Z: v.Z + 1, T: t},
	)
}

func (unboundedCube) Succs(v lattice.Point, buf []lattice.Point) []lattice.Point {
	t := v.T + 1
	return append(buf,
		lattice.Point{X: v.X, Y: v.Y, Z: v.Z, T: t},
		lattice.Point{X: v.X - 1, Y: v.Y, Z: v.Z, T: t},
		lattice.Point{X: v.X + 1, Y: v.Y, Z: v.Z, T: t},
		lattice.Point{X: v.X, Y: v.Y - 1, Z: v.Z, T: t},
		lattice.Point{X: v.X, Y: v.Y + 1, Z: v.Z, T: t},
		lattice.Point{X: v.X, Y: v.Y, Z: v.Z - 1, T: t},
		lattice.Point{X: v.X, Y: v.Y, Z: v.Z + 1, T: t},
	)
}
