package simulate

import (
	"context"
	"math"
	"testing"

	"bsmp/internal/cost"
	"bsmp/internal/guest"
	"bsmp/internal/obs"
)

// findSpans walks the span forest and collects every span named name.
func findSpans(roots []*obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name == name {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// Attaching a tracer must not perturb virtual time by a single bit: span
// hooks only read meter/bank snapshots, never charge. These runs repeat
// the golden cases from golden_test.go with a tracer attached.
func TestTraceGoldenBitIdentical(t *testing.T) {
	p1 := guest.AsNetwork{G: guest.MixCA{Seed: 9}}

	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	mr, err := MultiContext(ctx, 1, 64, 4, 16, 16, p1, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Time != 79686.0625 {
		t.Errorf("traced MultiD1: Time = %v, golden 79686.0625", mr.Time)
	}
	if mr.PrepTime != 45232 {
		t.Errorf("traced MultiD1: PrepTime = %v, golden 45232", mr.PrepTime)
	}

	tr2 := obs.NewTracer()
	ctx2 := obs.WithTracer(context.Background(), tr2)
	r, err := BlockedContext(ctx2, 1, 64, 4, 16, 0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Time != 1.59814675e+06 {
		t.Errorf("traced BlockedD1: Time = %v, golden 1.59814675e+06", r.Time)
	}
	// With the subtree memo warm (shared across runs in this process), any
	// child may replay instead of recursing; both span kinds mark one
	// recursion-child boundary.
	blocks := len(findSpans(tr2.Roots(), "block")) + len(findSpans(tr2.Roots(), "block:replayed"))
	if blocks == 0 {
		t.Error("traced BlockedD1 recorded no block or block:replayed spans")
	}

	// UniDC runs the same recursion, so it emits the same per-child
	// spans; it is never memoized, so none of them is a replay.
	tr3 := obs.NewTracer()
	dc, err := UniDCContext(obs.WithTracer(context.Background(), tr3), 1, 64, 64, 8, guest.Rule90{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dc.Time != 2.831097e+06 {
		t.Errorf("traced UniDC d=1: Time = %v, golden 2.831097e+06", dc.Time)
	}
	if len(findSpans(tr3.Roots(), "block")) == 0 || len(findSpans(tr3.Roots(), "block:replayed")) != 0 {
		t.Error("traced UniDC d=1 recorded no block spans, or a replay")
	}
}

// The schedule span's phase children carry virtual-time deltas sampled
// from the bank; like PhaseBreakdown they telescope to the full makespan
// Time + PrepTime (relative tolerance for float regrouping of the same
// charges; Time itself is checked bit-exactly above).
func TestTracePhaseSpansSumToMakespan(t *testing.T) {
	p1 := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	mr, err := MultiContext(ctx, 1, 64, 4, 16, 16, p1, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}

	scheds := findSpans(tr.Roots(), "schedule")
	if len(scheds) != 1 {
		t.Fatalf("found %d schedule spans, want 1", len(scheds))
	}
	sched := scheds[0]
	full := float64(mr.Time + mr.PrepTime)
	if got := sched.Attrs["vtime"]; math.Abs(got-full) > 1e-9*full {
		t.Errorf("schedule vtime = %v, want Time+PrepTime = %v", got, full)
	}

	wantPhases := []string{
		"phase:" + cost.PhaseRearrange,
		"phase:" + cost.PhaseRegime1,
		"phase:" + cost.PhaseRegime2Exec,
		"phase:" + cost.PhaseRegime2Exchange,
	}
	if len(sched.Children) == 0 {
		t.Fatal("schedule span has no phase children")
	}
	seen := map[string]bool{}
	var sum float64
	for _, c := range sched.Children {
		seen[c.Name] = true
		sum += c.Attrs["vtime"]
	}
	for _, w := range wantPhases {
		if !seen[w] {
			t.Errorf("missing phase span %q (have %v)", w, seen)
		}
	}
	if math.Abs(sum-full) > 1e-9*full {
		t.Errorf("phase vtimes sum to %v, want Time+PrepTime = %v", sum, full)
	}
}

// RunSchemeContext wraps the run in a scheme:<name> root whose subtree
// holds the engine spans, and stamps the makespan on the root.
func TestTraceSchemeRootSpan(t *testing.T) {
	p1 := guest.AsNetwork{G: guest.MixCA{Seed: 9}}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	mr, err := RunSchemeContext(ctx, "multi", 1, 64, 4, 16, 16, p1, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d root spans, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "scheme:multi" {
		t.Errorf("root span = %q, want scheme:multi", root.Name)
	}
	full := float64(mr.Time + mr.PrepTime)
	if got := root.Attrs["vtime"]; got != full {
		t.Errorf("root vtime = %v, want %v", got, full)
	}
	if root.DurNS < 0 {
		t.Errorf("root DurNS = %d, want >= 0", root.DurNS)
	}
	// d = 1 has no candidate-span search, so no "plan" span; that stage
	// only appears under the d = 2/3 planners.
	for _, name := range []string{"schedule", "replay"} {
		if len(findSpans([]*obs.Span{root}, name)) == 0 {
			t.Errorf("scheme subtree missing %q span", name)
		}
	}
}
