package simulate

import (
	"context"
	"testing"

	"bsmp/internal/guest"
	"bsmp/internal/hram"
)

// These tests cover the two extensions from the paper's conclusions that
// the blocked executor supports: pipelined block transfers and guests
// using only m' < m memory words.

func TestBlockedD1PipelinedFunctional(t *testing.T) {
	prog := netProg(0)
	res, err := BlockedD1Context(context.Background(), 32, 4, 24, 0, prog, hram.WithPipelinedBlocks())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(1, 32, 4, prog); err != nil {
		t.Fatal(err)
	}
}

func TestBlockedD1PipelinedFaster(t *testing.T) {
	// Pipelined block moves (latency + length instead of length × latency)
	// must strictly reduce the measured time, increasingly so for larger
	// m where transfers dominate.
	prog := netProg(0)
	n, steps := 128, 32
	for _, m := range []int{4, 16, 64} {
		std, err := BlockedD1Context(context.Background(), n, m, steps, 0, prog)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := BlockedD1Context(context.Background(), n, m, steps, 0, prog, hram.WithPipelinedBlocks())
		if err != nil {
			t.Fatal(err)
		}
		if pipe.Time >= std.Time {
			t.Errorf("m=%d: pipelined %v not faster than per-word %v", m, pipe.Time, std.Time)
		}
	}
}

func TestBlockedD1PipelinedRemovesLocalityGrowth(t *testing.T) {
	// The conclusions' claim: with pipelined memory the locality slowdown
	// (the growth of slowdown with m) largely disappears. Measure the
	// m = 64 over m = 4 time ratio under both models: the pipelined ratio
	// must be much closer to 1.
	prog := netProg(0)
	n, steps := 256, 64
	ratio := func(opts ...hram.Option) float64 {
		a, err := BlockedD1Context(context.Background(), n, 4, steps, 0, prog, opts...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BlockedD1Context(context.Background(), n, 64, steps, 0, prog, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return float64(b.Time) / float64(a.Time)
	}
	std := ratio()
	pipe := ratio(hram.WithPipelinedBlocks())
	if pipe >= std {
		t.Errorf("pipelined m-growth %v not below per-word %v", pipe, std)
	}
	if pipe > 1.6 {
		t.Errorf("pipelined m-growth %v, want near-flat (< 1.6)", pipe)
	}
}

func TestRestrictMemFunctional(t *testing.T) {
	// A guest declaring m' < m live words must still reproduce the pure
	// run (including the untouched static cells).
	base := guest.MixCA{Seed: 13}
	for _, mp := range []int{1, 3, 8} {
		prog := guest.RestrictMem{P: base, Words: mp}
		res, err := BlockedD1Context(context.Background(), 16, 8, 12, 0, prog)
		if err != nil {
			t.Fatalf("m'=%d: %v", mp, err)
		}
		if err := res.Verify(1, 16, 8, prog); err != nil {
			t.Fatalf("m'=%d: %v", mp, err)
		}
	}
}

func TestRestrictMemImprovesLocality(t *testing.T) {
	// The conclusions' m' < m observation: with density m fixed, a guest
	// touching fewer cells simulates strictly faster, monotonically in m'.
	base := guest.MixCA{Seed: 13}
	n, m, steps := 128, 64, 32
	var prev float64
	for i, mp := range []int{4, 16, 64} {
		prog := guest.RestrictMem{P: base, Words: mp}
		res, err := BlockedD1Context(context.Background(), n, m, steps, 0, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(1, n, m, prog); err != nil {
			t.Fatal(err)
		}
		if i > 0 && float64(res.Time) <= prev {
			t.Errorf("m'=%d: time %v not above m'-smaller run %v", mp, res.Time, prev)
		}
		prev = float64(res.Time)
	}
}

func TestRestrictMemAddressViolationCaught(t *testing.T) {
	// A program that lies about its live region must fail loudly.
	prog := lyingMemUser{}
	if _, err := BlockedD1Context(context.Background(), 8, 4, 4, 0, prog); err == nil {
		t.Fatal("out-of-region address not caught")
	}
}

type lyingMemUser struct{}

func (lyingMemUser) MemWords(int) int { return 1 }
func (lyingMemUser) Init(node int, mem []hram.Word) hram.Word {
	return hram.Word(node)
}
func (lyingMemUser) Address(node, step, memSize int) int { return memSize - 1 } // beyond m'=1
func (lyingMemUser) Step(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word) {
	return cell + 1, cell
}

func TestSimulatorsPreserveSortingInvariant(t *testing.T) {
	// Beyond bit-equality with the reference, a semantic end-to-end
	// invariant: simulating the odd-even transposition sorter must leave
	// a sorted row. Run the guest through the blocked and multiprocessor
	// schemes.
	n := 32
	prog := guest.AsNetwork{G: guest.OETSort{Seed: 5}}
	checkSorted := func(name string, out []hram.Word) {
		t.Helper()
		for i := 1; i < len(out); i++ {
			if out[i-1] > out[i] {
				t.Fatalf("%s: output not sorted at %d", name, i)
			}
		}
	}
	blk, err := BlockedD1Context(context.Background(), n, 1, n, 0, prog)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted("blocked", blk.Outputs)
	mu, err := MultiD1Context(context.Background(), n, 4, 1, n, prog, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted("multi", mu.Outputs)
	nv, err := NaiveContext(context.Background(), 1, n, 4, 1, n, prog)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted("naive", nv.Outputs)
}
