package exp

import (
	"slices"
	"strings"
	"testing"

	"bsmp/internal/dag"
	"bsmp/internal/lattice"
)

func TestValidatePartitionCases(t *testing.T) {
	g := dag.NewLineGraph(16, 16)
	root := g.Domain()
	kids := root.Children()
	if len(kids) < 2 {
		t.Fatalf("root splits into %d pieces, want >= 2", len(kids))
	}
	swapped := slices.Clone(kids)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	cube := lattice.CentralBox6(4)
	for _, tc := range []struct {
		name   string
		g      dag.Graph
		parent lattice.Domain
		pieces []lattice.Domain
		want   string // error substring; "" means valid
	}{
		{"valid", g, root, kids, ""},
		{"overlap", g, root, append(slices.Clone(kids), kids[0]), "in pieces 0 and " + d(len(kids))},
		{"gap", g, root, kids[1:], "pieces cover"},
		{"outside parent", g, kids[0], []lattice.Domain{root}, "outside parent"},
		{"dependency order", g, root, swapped, "dependency violation"},
		// The unbounded d = 3 stencil reaches predecessors below and
		// beside the parent's bounding box; they belong to no piece.
		{"preds beyond the bounding box", unboundedCube{}, cube, cube.Children(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validatePartition(tc.g, tc.parent, tc.pieces)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("validatePartition = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validatePartition = %v, want an error containing %q", err, tc.want)
			}
			// The walk is in index order: the same first error every run.
			for i := 0; i < 5; i++ {
				if again := validatePartition(tc.g, tc.parent, tc.pieces); again == nil || again.Error() != err.Error() {
					t.Fatalf("run %d reported %v, first run %v", i, again, err)
				}
			}
		})
	}

	// The bounding-box case must actually reach past the box.
	ix := lattice.IndexerFor(cube)
	beyond := false
	cube.Points(func(p lattice.Point) bool {
		for _, q := range (unboundedCube{}).Preds(p, nil) {
			if !ix.Contains(q) {
				beyond = true
			}
		}
		return !beyond
	})
	if !beyond {
		t.Error("no predecessor of the d = 3 cube lies outside its bounding box")
	}
}
