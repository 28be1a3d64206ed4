package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bsmp"
)

// replayAttrs collects the attributes of every "replay" span of a span
// forest, in tree order.
func replayAttrs(roots []*bsmp.Span) []map[string]float64 {
	var out []map[string]float64
	for _, sp := range roots {
		if sp.Name == "replay" {
			out = append(out, sp.Attrs)
		}
		out = append(out, replayAttrs(sp.Children)...)
	}
	return out
}

// replaySpans splits a span forest's "replay" spans into those that
// stepped the guest and those that copied a shared replay.
func replaySpans(roots []*bsmp.Span) (stepped, shared int) {
	for _, a := range replayAttrs(roots) {
		if a["vertices"] > 0 {
			stepped++
		}
		if a["shared"] == 1 {
			shared++
		}
	}
	return stepped, shared
}

// sameBits reports whether two served results carry bit-identical times,
// ledgers and outputs digests.
func sameBits(a, b *RunResponse) bool {
	if math.Float64bits(a.Time) != math.Float64bits(b.Time) ||
		math.Float64bits(a.PrepTime) != math.Float64bits(b.PrepTime) ||
		a.OutputsDigest != b.OutputsDigest || len(a.Ledger) != len(b.Ledger) {
		return false
	}
	for k, v := range a.Ledger {
		if math.Float64bits(b.Ledger[k]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// A traced p × Θ sweep replays each guest once: its two replay groups
// step the guest twice in all, the other six rows copy the replay, and
// every row is bit-identical to /v1/run and carries the outputs digest
// of a direct RunSchemeContext of its tuple.
func TestSweepReplayGroups(t *testing.T) {
	s := New(Config{})
	body := `{"schemes": ["multi-theta"], "d": 1, "n": [128, 256], "p": [4, 8], "m": 4, "steps": 32,
		"theta": [1.5, 3], "seed": 5, "config": {"theta_seed": 7}}`
	rows, sum := decodeSweep(t, postSweep(t, s.Handler(), body, "?trace=1").Body.String())
	if len(rows) != 8 || !sum.Done || sum.Errors != 0 {
		t.Fatalf("rows = %d, summary %+v; want 8 rows, done, no errors", len(rows), sum)
	}
	if stepped, shared := replaySpans(sum.Trace); stepped != 2 || shared != 6 {
		t.Fatalf("replay spans: %d stepped, %d shared; want 2 and 6", stepped, shared)
	}

	fresh := New(Config{})
	digests := map[int]string{}
	for _, row := range rows {
		got := row.Result
		if got == nil {
			t.Fatalf("row %d: %+v", row.Index, row.Error)
		}
		if got.OutputsDigest == "" {
			t.Fatalf("row %d carries no outputs digest", row.Index)
		}
		run := fmt.Sprintf(`{"scheme": "multi-theta", "d": 1, "n": %d, "p": %d, "m": 4, "steps": 32, "seed": 5, "config": {"theta": %g, "theta_seed": 7}}`,
			got.N, got.P, got.Theta)
		want := decodeRun(t, postRun(t, fresh.Handler(), run))
		if !sameBits(got, &want) {
			t.Fatalf("row %d (n=%d p=%d Θ=%g) differs from /v1/run:\n%+v\n%+v", row.Index, got.N, got.P, got.Theta, got, want)
		}
		req := RunRequest{Scheme: "multi-theta", D: 1, N: got.N, P: got.P, M: 4, Steps: 32, Guest: "mixca", Seed: 5,
			Config: RunConfig{Theta: got.Theta, ThetaSeed: 7}}
		res, err := bsmp.RunSchemeContext(context.Background(), req.Scheme, req.D, req.N, req.P, req.M, req.Steps, buildGuest(req), req.schemeConfig())
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Digest(); got.OutputsDigest != d {
			t.Fatalf("row %d digest %s, direct run %s", row.Index, got.OutputsDigest, d)
		}
		if d, ok := digests[got.N]; ok && d != got.OutputsDigest {
			t.Fatalf("n=%d: digests %s and %s differ across p and Θ", got.N, d, got.OutputsDigest)
		}
		digests[got.N] = got.OutputsDigest
	}
	if digests[128] == digests[256] {
		t.Fatal("distinct guests share a digest")
	}
}

// A replay group is one guest across step counts. Groups dispatch
// largest first — descending n × the group's largest steps, ties in grid
// order — and a group's units run back to back in ascending steps, ties
// in grid order, so each resumes from the one before it.
func TestSweepGroupsDispatchLargestFirst(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallel: 1})
	var mu sync.Mutex
	var order []string
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		mu.Lock()
		order = append(order, fmt.Sprintf("n%d/s%d/p%d", req.N, req.Steps, req.P))
		mu.Unlock()
		return &RunResponse{Scheme: req.Scheme, N: req.N, P: req.P, Steps: req.Steps, Time: 1}, nil
	}
	body := `{"schemes": ["multi"], "d": 1, "n": [64, 256, 128], "p": [2, 4], "m": 4, "steps": [16, 32]}`
	rows, sum := decodeSweep(t, postSweep(t, s.Handler(), body, "").Body.String())
	if len(rows) != 12 || !sum.Done {
		t.Fatalf("rows = %d, done = %v; want 12, true", len(rows), sum.Done)
	}
	want := []string{
		"n256/s16/p2", "n256/s16/p4", "n256/s32/p2", "n256/s32/p4", // 256 × 32
		"n128/s16/p2", "n128/s16/p4", "n128/s32/p2", "n128/s32/p4", // 128 × 32
		"n64/s16/p2", "n64/s16/p4", "n64/s32/p2", "n64/s32/p4", // 64 × 32
	}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("dispatch order\n%v\nwant\n%v", order, want)
	}
}

// groupsOf plans a sweep body the way the handler does and renders its
// groups, in dispatch order, as scheme/p lists.
func groupsOf(t *testing.T, s *Server, body string) []string {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	points, detail := s.expandSweep(req)
	if detail != nil {
		t.Fatalf("expandSweep: %+v", detail)
	}
	var out []string
	for _, g := range groupSweep(planSweep(points, false)) {
		var units []string
		for _, u := range g {
			units = append(units, fmt.Sprintf("%s/p%d", u.req.Scheme, u.req.P))
		}
		out = append(out, strings.Join(units, "+"))
	}
	return out
}

// Only schemes whose registry entry takes its outputs from the replay
// are grouped; naive and the uniprocessor schemes execute the guest for
// real and stay groups of one, even beside a group of the same guest.
func TestSweepGroupsOnlyReplayingSchemes(t *testing.T) {
	s := New(Config{})
	for _, tc := range []struct {
		body string
		want string
	}{
		{`{"schemes": ["naive"], "d": 1, "n": 64, "p": [2, 4, 8], "m": 4, "steps": 16}`,
			"naive/p2 naive/p4 naive/p8"},
		{`{"schemes": ["blocked", "unidc"], "d": 1, "n": 64, "p": 1, "m": 1, "steps": 16}`,
			"blocked/p1 unidc/p1"},
		{`{"schemes": ["naive", "multi", "multi-faulty"], "d": 1, "n": 64, "p": [2, 4], "m": 4, "steps": 16}`,
			"naive/p2 naive/p4 multi/p2+multi/p4+multi-faulty/p2+multi-faulty/p4"},
		{`{"schemes": ["multi"], "d": 1, "n": 64, "p": [2, 4], "m": [4, 8], "steps": 16, "seed": 3}`,
			"multi/p2+multi/p4 multi/p2+multi/p4"},
	} {
		if got := strings.Join(groupsOf(t, s, tc.body), " "); got != tc.want {
			t.Errorf("%s:\ngroups %s\nwant   %s", tc.body, got, tc.want)
		}
	}
}

// Cancelling a sweep while its group leader replays frees every slot and
// leaves no goroutine behind: with one worker and one sweep slot, a later
// run and a later sweep both complete.
func TestSweepCancelDuringGroupReplay(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallel: 1})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"schemes": ["multi"], "d": 1, "n": 4096, "p": [8, 16], "m": 4, "steps": 4096}`
	// Traced, so the run's tracer keeps the replay span (the registry's
	// own tracer caps spans below the calibration's count).
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep?trace=1", strings.NewReader(body)).WithContext(ctx)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		done <- w
	}()

	deadline := time.Now().Add(60 * time.Second)
	for !replaying(s) {
		if time.Now().After(deadline) {
			t.Fatal("the group leader never reached its replay")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case w := <-done:
		if _, sum := decodeSweep(t, w.Body.String()); sum.Done {
			t.Fatal("cancelled sweep reported done")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep handler did not return after cancellation")
	}
	if n := len(s.sweepSem); n != 0 {
		t.Fatalf("%d sweep slots held after the sweep returned", n)
	}

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if w := postRun(t, s.Handler(), validRun); w.Code != http.StatusOK {
			t.Errorf("run after cancelled sweep: status %d, body %s", w.Code, w.Body)
		}
		small := `{"schemes": ["multi"], "d": 1, "n": 64, "p": [2, 4], "m": 4, "steps": 16}`
		if _, sum := decodeSweep(t, postSweep(t, s.Handler(), small, "").Body.String()); !sum.Done || sum.Errors != 0 {
			t.Errorf("sweep after cancelled sweep: %+v", sum)
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("a slot leaked: the later run or sweep never completed")
	}

	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the sweep", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replaying reports whether a live run of s is inside its replay span.
func replaying(s *Server) bool {
	for _, h := range s.registry.List() {
		if h.Snapshot(false).Span == "replay" {
			return true
		}
	}
	return false
}
