package simulate

import (
	"context"
	"fmt"
	"math"
	"strings"
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

	r, err := BlockedContext(context.Background(), 1, 64, 4, 16, 0, p1)
	check("BlockedD1 n=64 m=4", r, err, 1.59814675e+06, 0)
	r, err = BlockedContext(context.Background(), 1, 64, 16, 16, 3, p1)
	check("BlockedD1 n=64 m=16 leaf=3", r, err, 3.7769246875e+06, 0)
	r, err = BlockedContext(context.Background(), 2, 64, 4, 8, 0, p2)
	check("BlockedD2 n=64 m=4", r, err, 172983.02430326765, 2604)
	r, err = BlockedContext(context.Background(), 2, 64, 4, 8, 4, p2)
	check("BlockedD2 n=64 m=4 leaf=4", r, err, 172983.02430326765, 2604)
	r, err = BlockedContext(context.Background(), 3, 64, 4, 4, 0, p3)
	check("BlockedD3 n=64 m=4", r, err, 39704.06681616664, 2128)
	r, err = BlockedContext(context.Background(), 3, 64, 4, 4, 2, p3)
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

	mr, err := MultiContext(context.Background(), 1, 64, 4, 16, 16, p1, MultiOptions{})
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

	m2, err := MultiContext(context.Background(), 2, 256, 4, 8, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Time != 121540.75244594147 {
		t.Errorf("MultiD2: Time = %v, golden 121540.75244594147", m2.Time)
	}
	checkPhases("MultiD2", m2)

	m3, err := MultiContext(context.Background(), 3, 512, 8, 4, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8}, MultiOptions{})
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

// TestGoldenMultiThetaFaults pins the Θ > 1 and fault-masked runs of
// the multiprocessor schedule bit-exactly, as TestGoldenMulti pins the
// lockstep ones: Time, PrepTime, every ledger category's total and
// count, and every phase entry's name, time and ledger. Each case is
// rendered with shortest round-trip float formatting, so two renderings
// are equal exactly when every pinned number is bit-identical.
func TestGoldenMultiThetaFaults(t *testing.T) {
	tuples := map[int]struct {
		n, p, m, steps int
		prog           guest.AsNetwork
	}{
		1: {64, 4, 16, 16, guest.AsNetwork{G: guest.MixCA{Seed: 9}}},
		2: {256, 4, 8, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, Side: 16}},
		3: {512, 8, 4, 8, guest.AsNetwork{G: guest.MixCA{Seed: 9}, CubeSide: 8}},
	}
	cases := []struct {
		scheme string
		d      int
		opts   MultiOptions
		want   string
	}{
		{"multi-theta", 1, MultiOptions{Theta: 1.5, ThetaSeed: 7},
			"time=102346.25359553429 prep=66491.92066412831 compute=64314.25/52 transfer=465133.89466690115/12 message=93158.68806032685/52 sync=52745.8643114224/45; " +
				"rearrange=66491.92066412831 transfer=238480.31591126055/4 sync=27487.366745252693/3; " +
				"regime1=60344.02945846977 transfer=226653.5787556406/8 sync=14722.539078238464/3; " +
				"regime2-exec=16078.562500000015 compute=64314.25/52; " +
				"regime2-exchange=25923.661637064506 message=93158.68806032685/52 sync=10535.958487931246/39"},
		{"multi-theta", 1, MultiOptions{Theta: 4, ThetaSeed: 7},
			"time=215647.20907320574 prep=172791.52398476985 compute=64314.25/52 transfer=981523.3680014069/12 message=191442.12836196113/52 sync=316475.18586853426/45; " +
				"rearrange=172791.52398476985 transfer=526241.8954675633/4 sync=164924.20047151615/3; " +
				"regime1=135904.1767508186 transfer=455281.4725338436/8 sync=88335.2344694307/3; " +
				"regime2-exec=16078.5625 compute=64314.25/52; " +
				"regime2-exchange=63664.46982238715 message=191442.12836196113/52 sync=63215.75092758742/39"},
		{"multi-faulty", 1, MultiOptions{Faults: 0.3, FaultSeed: 11},
			"time=103791.73914670659 prep=69337.67664670659 compute=64314.25/52 transfer=554701.4131736527/12 message=73502/52; " +
				"rearrange=69337.67664670659 transfer=277350.70658682636/4; " +
				"regime1=69337.67664670659 transfer=277350.70658682636/8; " +
				"regime2-exec=16078.5625 compute=64314.25/52; " +
				"regime2-exchange=18375.5 message=73502/52"},
		{"multi-theta", 2, MultiOptions{Theta: 1.5, ThetaSeed: 7},
			"time=162175.39022681292 prep=0 compute=138903.71708107597/4 transfer=274632.46980077727/4 message=164737.96556517284/4 sync=70427.40846022553/6; " +
				"rearrange=0; " +
				"regime1=76571.68820835438 transfer=274632.46980077727/4 sync=31654.283032640225/3; " +
				"regime2-exec=34725.929270269 compute=138903.71708107597/4; " +
				"regime2-exchange=50877.77274818954 message=164737.96556517284/4 sync=38773.125427585306/3"},
		{"multi-theta", 2, MultiOptions{Theta: 4, ThetaSeed: 7},
			"time=365348.57913117006 prep=0 compute=138903.71708107597/4 transfer=606016.9406965938/4 message=293909.20798565715/4 sync=422564.4507613532/6; " +
				"rearrange=0; " +
				"regime1=198985.65972310884 transfer=606016.9406965938/4 sync=189925.69819584145/3; " +
				"regime2-exec=34725.929270269 compute=138903.71708107597/4; " +
				"regime2-exchange=131636.99013779222 message=293909.20798565715/4 sync=232638.75256551174/3"},
		{"multi-faulty", 2, MultiOptions{Faults: 0.3, FaultSeed: 11},
			"time=146309.2466660901 prep=0 compute=138903.71708107597/4 transfer=307429.55250220845/4 message=138903.71708107597/4; " +
				"rearrange=0; " +
				"regime1=76857.38812555211 transfer=307429.55250220845/4; " +
				"regime2-exec=34725.929270268985 compute=138903.71708107597/4; " +
				"regime2-exchange=34725.929270269 message=138903.71708107597/4"},
		{"multi-theta", 3, MultiOptions{Theta: 1.5, ThetaSeed: 7},
			"time=210950.127642649 prep=0 compute=189120.4922267101/8 transfer=599858.1183669064/8 message=680578.5635559814/8 sync=218043.84699159395/14; " +
				"rearrange=0; " +
				"regime1=83403.24172112202 transfer=599858.1183669064/8 sync=67367.81540206971/7; " +
				"regime2-exec=23640.061528338774 compute=189120.4922267101/8; " +
				"regime2-exchange=103906.8243931882 message=680578.5635559814/8 sync=150676.03158952424/7"},
		{"multi-theta", 3, MultiOptions{Theta: 4, ThetaSeed: 7},
			"time=509218.79694905336 prep=0 compute=189120.4922267101/8 transfer=1.3297028034809171e+06/8 message=1.246663997935236e+06/8 sync=1.3082630819495637e+06/14; " +
				"rearrange=0; " +
				"regime1=216738.71198666695 transfer=1.3297028034809171e+06/8 sync=404206.8924124186/7; " +
				"regime2-exec=23640.06152833876 compute=189120.4922267101/8; " +
				"regime2-exchange=268840.02343404765 message=1.246663997935236e+06/8 sync=904056.1895371451/7"},
		{"multi-faulty", 3, MultiOptions{Faults: 0.3, FaultSeed: 11},
			"time=7.980788444131043e+06 prep=0 compute=3.755665150179314e+06/1 transfer=0/1 message=4.225123293951728e+06/1; " +
				"rearrange=0; " +
				"regime1=0 transfer=0/1; " +
				"regime2-exec=3.755665150179314e+06 compute=3.755665150179314e+06/1; " +
				"regime2-exchange=4.225123293951729e+06 message=4.225123293951728e+06/1"},
	}
	for _, c := range cases {
		tu := tuples[c.d]
		mr, err := RunSchemeContext(context.Background(), c.scheme, c.d, tu.n, tu.p, tu.m, tu.steps, tu.prog,
			SchemeConfig{Multi: c.opts})
		if err != nil {
			t.Fatalf("%s d=%d %+v: %v", c.scheme, c.d, c.opts, err)
		}
		if got := renderGoldenMulti(mr); got != c.want {
			t.Errorf("%s d=%d %+v:\n got: %s\nwant: %s", c.scheme, c.d, c.opts, got, c.want)
		}
	}
}

// renderGoldenMulti renders a run's times, ledger and phase breakdown
// for TestGoldenMultiThetaFaults. A ledger category with neither time
// nor charges is omitted, which loses nothing.
func renderGoldenMulti(mr MultiResult) string {
	ledger := func(l cost.Ledger) string {
		var b strings.Builder
		for _, c := range cost.Categories() {
			if l.Total(c) != 0 || l.Count(c) != 0 {
				fmt.Fprintf(&b, " %s=%v/%d", c, l.Total(c), l.Count(c))
			}
		}
		return b.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time=%v prep=%v%s", mr.Time, mr.PrepTime, ledger(mr.Ledger))
	for _, ph := range mr.Phases {
		fmt.Fprintf(&b, "; %s=%v%s", ph.Name, ph.Time, ledger(ph.Ledger))
	}
	return b.String()
}
