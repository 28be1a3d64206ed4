package simulate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/guest"
)

// renderGoldenRun renders a run's Time, Space, every ledger category's
// total and count, and the word-wise FNV-1a digest of its outputs
// followed by its memories, node by node. Floats use shortest
// round-trip formatting, so two renderings are equal exactly when every
// pinned number is bit-identical. A ledger category with neither time
// nor charges is omitted, which loses nothing.
func renderGoldenRun(r Result) string {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, w := range r.Outputs {
		h = (h ^ w) * prime
	}
	for _, mem := range r.Memories {
		for _, w := range mem {
			h = (h ^ w) * prime
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time=%v space=%d", r.Time, r.Space)
	for _, c := range cost.Categories() {
		if r.Ledger.Total(c) != 0 || r.Ledger.Count(c) != 0 {
			fmt.Fprintf(&b, " %s=%v/%d", c, r.Ledger.Total(c), r.Ledger.Count(c))
		}
	}
	fmt.Fprintf(&b, " digest=%016x", h)
	return b.String()
}

// goldenMixCA is the seed-9 MixCA guest on the d-dimensional n = 64 mesh
// (a line, an 8×8 square or a 4×4×4 cube).
func goldenMixCA(d int) guest.AsNetwork {
	prog := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	switch d {
	case 2:
		prog.Side = 8
	case 3:
		prog.CubeSide = 4
	}
	return prog
}

// TestGoldenUniNaive pins the row-major uniprocessor baseline over the
// m = 1 guest dag bit-exactly at d = 1, 2 and 3: Time, every ledger
// category's total and count, and the digest of the final dag layer.
func TestGoldenUniNaive(t *testing.T) {
	cases := []struct {
		d, n, steps int
		want        string
	}{
		{1, 64, 16, "time=240967 space=0 compute=1024/1024 access=239943/3874 digest=c60a010cc1434d69"},
		{2, 64, 8, "time=18880.419658402316 space=0 compute=512/512 access=18368.419658402316/2528 digest=6f0ee12cdfaa7e5d"},
		{3, 64, 4, "time=4931.330439270538 space=0 compute=256/256 access=4675.3304392705395/1312 digest=75831ff0fb701f8d"},
	}
	for _, c := range cases {
		r, err := UniNaiveDagContext(context.Background(), c.d, c.n, c.steps, guest.MixCA{Seed: 9})
		if err != nil {
			t.Fatalf("d=%d: %v", c.d, err)
		}
		if got := renderGoldenRun(r); got != c.want {
			t.Errorf("d=%d:\n got: %s\nwant: %s", c.d, got, c.want)
		}
	}
}

// TestGoldenBlockedLedger extends TestGoldenBlocked's six tuples from
// Time and Space to the whole run: every ledger category's total and
// count and the digest of the outputs and final memories. Each tuple
// runs with the subtree memo on and under WithoutMemo against the same
// rendering: the memo replays recorded charges, so it changes no number.
func TestGoldenBlockedLedger(t *testing.T) {
	cases := []struct {
		d, n, m, steps, leaf int
		want                 string
	}{
		{1, 64, 4, 16, 0, "time=1.59814675e+06 space=1517 compute=1088/1088 access=19163.75/6176 transfer=1.577895e+06/9514 digest=5878ce454dc60fcf"},
		{1, 64, 16, 16, 3, "time=3.7769246875e+06 space=4769 compute=1088/1088 access=16655.9375/6176 transfer=3.75918075e+06/9514 digest=22e4cca9aad06f57"},
		{2, 64, 4, 8, 0, "time=172983.02430326765 space=2604 compute=576/576 access=14045.533411562681/3904 transfer=158361.49089170469/4104 digest=b562be5698319a45"},
		{2, 64, 4, 8, 4, "time=172983.02430326765 space=2604 compute=576/576 access=14045.533411562681/3904 transfer=158361.49089170469/4104 digest=b562be5698319a45"},
		{3, 64, 4, 4, 0, "time=39704.06681616664 space=2128 compute=320/320 access=6325.260051417265/2240 transfer=33058.80676474907/1696 digest=75e1531e02ddd865"},
		{3, 64, 4, 4, 2, "time=58759.92294148945 space=2264 compute=320/320 access=4624.031835783304/2240 transfer=53815.89110570603/3456 digest=75e1531e02ddd865"},
	}
	for _, c := range cases {
		for _, run := range []struct {
			name string
			ctx  context.Context
		}{
			{"memo", context.Background()},
			{"nomemo", WithoutMemo(context.Background())},
		} {
			mr, err := RunSchemeContext(run.ctx, "blocked", c.d, c.n, 1, c.m, c.steps, goldenMixCA(c.d), SchemeConfig{Leaf: c.leaf})
			if err != nil {
				t.Fatalf("d=%d m=%d leaf=%d %s: %v", c.d, c.m, c.leaf, run.name, err)
			}
			if got := renderGoldenRun(mr.Result); got != c.want {
				t.Errorf("d=%d m=%d leaf=%d %s:\n got: %s\nwant: %s", c.d, c.m, c.leaf, run.name, got, c.want)
			}
		}
	}
}
