package simulate

import (
	"context"
	"math"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/guest"
)

// These golden values were recorded from the seed implementation (hash-map
// address tables) before the dense-table rewrite. Virtual time is part of
// the repository's scientific contract: the optimization work changes how
// the host computes addresses, never what the simulated machine does, so
// every Time below must stay BIT-identical — not approximately equal.
// Space allowances are structural (separator.SpaceNeeded / spaceNeeded)
// and must match exactly too. If a change legitimately alters the cost
// model, the new values must be re-derived and the change called out as
// model-affecting, never absorbed silently.

func TestGoldenUniDC(t *testing.T) {
	cases := []struct {
		name      string
		d, n, stp int
		leaf      int
		seed      uint64
		time      cost.Time
		space     int
	}{
		{"d1_n64", 1, 64, 64, 8, 1, 2.831097e+06, 892},
		{"d2_n64", 2, 64, 8, 8, 2, 59415.13316371092, 596},
		{"d3_n64", 3, 64, 4, 8, 3, 12645.595148408436, 360},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := UniDCContext(context.Background(), c.d, c.n, c.stp, c.leaf, guest.Rule90{Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			if r.Time != c.time {
				t.Errorf("Time = %v, golden %v", r.Time, c.time)
			}
			if r.Space != c.space {
				t.Errorf("Space = %d, golden %d", r.Space, c.space)
			}
		})
	}
}

func TestGoldenBlocked(t *testing.T) {
	p1 := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	p2 := guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 8}
	p3 := guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 4}

	check := func(name string, r Result, err error, time cost.Time, space int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Time != time {
			t.Errorf("%s: Time = %v, golden %v", name, r.Time, time)
		}
		if space != 0 && r.Space != space {
			t.Errorf("%s: Space = %d, golden %d", name, r.Space, space)
		}
	}

	r, err := BlockedD1Context(context.Background(), 64, 4, 16, 0, p1)
	check("BlockedD1 n=64 m=4", r, err, 1.59814675e+06, 0)
	r, err = BlockedD1Context(context.Background(), 64, 16, 16, 3, p1)
	check("BlockedD1 n=64 m=16 leaf=3", r, err, 3.7769246875e+06, 0)
	r, err = BlockedD2Context(context.Background(), 64, 4, 8, 0, p2)
	check("BlockedD2 n=64 m=4", r, err, 172983.02430326765, 2604)
	r, err = BlockedD2Context(context.Background(), 64, 4, 8, 4, p2)
	check("BlockedD2 n=64 m=4 leaf=4", r, err, 172983.02430326765, 2604)
	r, err = BlockedD3Context(context.Background(), 64, 4, 4, 0, p3)
	check("BlockedD3 n=64 m=4", r, err, 39704.06681616664, 2128)
	r, err = BlockedD3Context(context.Background(), 64, 4, 4, 2, p3)
	check("BlockedD3 n=64 m=4 leaf=2", r, err, 58759.92294148945, 2264)
}

func TestGoldenMulti(t *testing.T) {
	p1 := guest.AsNetwork{G: guest.MixCA{Seed: 9}}

	// Phase attribution rides along without perturbing the golden times:
	// the breakdown names the four schedule phases in order and its entry
	// times telescope to the full makespan Time + PrepTime (up to float
	// regrouping of the same charges, hence the relative tolerance on the
	// sum while Time itself stays bit-exact).
	checkPhases := func(name string, mr MultiResult) {
		t.Helper()
		wantNames := []string{
			cost.PhaseRearrange, cost.PhaseRegime1,
			cost.PhaseRegime2Exec, cost.PhaseRegime2Exchange,
		}
		if len(mr.Phases) != len(wantNames) {
			t.Errorf("%s: %d phases, want %d (%v)", name, len(mr.Phases), len(wantNames), mr.Phases)
			return
		}
		for i, want := range wantNames {
			if mr.Phases[i].Name != want {
				t.Errorf("%s: phase[%d] = %q, want %q", name, i, mr.Phases[i].Name, want)
			}
		}
		full := float64(mr.Time + mr.PrepTime)
		if got := float64(mr.Phases.Total()); math.Abs(got-full) > 1e-9*full {
			t.Errorf("%s: phase total %v != Time+PrepTime %v", name, got, full)
		}
		if got := mr.Phases.Time(cost.PhaseRearrange); got != mr.PrepTime {
			t.Errorf("%s: rearrange phase %v != PrepTime %v", name, got, mr.PrepTime)
		}
	}

	mr, err := MultiD1Context(context.Background(), 64, 4, 16, 16, p1, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Time != 79686.0625 {
		t.Errorf("MultiD1: Time = %v, golden 79686.0625", mr.Time)
	}
	if mr.PrepTime != 45232 {
		t.Errorf("MultiD1: PrepTime = %v, golden 45232", mr.PrepTime)
	}
	checkPhases("MultiD1", mr)

	m2, err := MultiD2Context(context.Background(), 256, 4, 8, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Time != 121540.75244594147 {
		t.Errorf("MultiD2: Time = %v, golden 121540.75244594147", m2.Time)
	}
	checkPhases("MultiD2", m2)

	m3, err := MultiD3Context(context.Background(), 512, 8, 4, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Time != 151296.39378136813 {
		t.Errorf("MultiD3: Time = %v, golden 151296.39378136813", m3.Time)
	}
	checkPhases("MultiD3", m3)

	cr, err := CoopBlockContext(context.Background(), 64, 4, 8, 8, 8, p1)
	if err != nil {
		t.Fatal(err)
	}
	if cr.CoopTime != 1014 {
		t.Errorf("CoopBlock: CoopTime = %v, golden 1014", cr.CoopTime)
	}
	if cr.SoloTime != 3754 {
		t.Errorf("CoopBlock: SoloTime = %v, golden 3754", cr.SoloTime)
	}
}
