package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"bsmp"
)

// lawFamily is one row family of the sweep-heavy workload's grids, at
// test size: its sweep's grid points form one replay group of four rows,
// two step counts by two host knobs (p, or Θ for multi-theta).
type lawFamily struct {
	name  string
	sweep SweepRequest
}

var lawFamilies = []lawFamily{
	{"multi/d=1", SweepRequest{Schemes: []string{"multi"}, D: 1, N: Axis{1024}, P: Axis{8, 16}, M: Axis{4},
		Steps: Axis{16, 32}, Guest: "mixca", Seed: 11}},
	{"multi/d=2", SweepRequest{Schemes: []string{"multi"}, D: 2, N: Axis{1024}, P: Axis{16, 64}, M: Axis{4},
		Steps: Axis{16, 32}, Guest: "mixca", Seed: 12}},
	{"multi/d=3", SweepRequest{Schemes: []string{"multi"}, D: 3, N: Axis{4096}, P: Axis{64, 512}, M: Axis{4},
		Steps: Axis{16, 32}, Guest: "mixca", Seed: 13}},
	{"multi-theta/d=1", SweepRequest{Schemes: []string{"multi-theta"}, D: 1, N: Axis{2048}, P: Axis{8}, M: Axis{4},
		Steps: Axis{16, 32}, Theta: FloatAxis{1.5, 4}, Guest: "mixca", Seed: 14, Config: RunConfig{ThetaSeed: 5}}},
	{"multi-faulty/d=1", SweepRequest{Schemes: []string{"multi-faulty"}, D: 1, N: Axis{2048}, P: Axis{8, 16}, M: Axis{4},
		Steps: Axis{16, 32}, Guest: "mixca", Seed: 15, Config: RunConfig{Faults: 0.1, FaultSeed: 3}}},
}

// body is the family's sweep, optionally cut to its first p, Θ and
// step count: a grid of one point.
func (f lawFamily) body(t *testing.T, one bool) string {
	t.Helper()
	req := f.sweep
	if one {
		req.P, req.Steps = req.P[:1], req.Steps[:1]
		if len(req.Theta) > 0 {
			req.Theta = req.Theta[:1]
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// request is the /v1/run request of a served row's tuple.
func (f lawFamily) request(got *RunResponse) RunRequest {
	req := RunRequest{Scheme: got.Scheme, D: got.D, N: got.N, P: got.P, M: got.M, Steps: got.Steps,
		Guest: f.sweep.Guest, Seed: f.sweep.Seed, Config: f.sweep.Config}
	req.Config.Theta = got.Theta
	return req
}

// directDigests memoizes the outputs digest of a direct RunSchemeContext
// run per tuple.
type directDigests map[string]string

func (dd directDigests) of(t *testing.T, req RunRequest) string {
	t.Helper()
	k := fmt.Sprintf("%+v", req)
	if d, ok := dd[k]; ok {
		return d
	}
	res, err := bsmp.RunSchemeContext(context.Background(), req.Scheme, req.D, req.N, req.P, req.M, req.Steps,
		buildGuest(req), req.schemeConfig())
	if err != nil {
		t.Fatalf("direct %+v: %v", req, err)
	}
	if dd[k] = res.Digest(); dd[k] == "" {
		t.Fatalf("direct %+v carries no digest", req)
	}
	return dd[k]
}

// checkRows fails unless the sweep completed with want rows, each
// carrying the digest of a direct run of its tuple.
func (dd directDigests) checkRows(t *testing.T, f lawFamily, what string, rows []SweepRow, sum SweepSummary, want int) {
	t.Helper()
	if len(rows) != want || !sum.Done || sum.Errors != 0 {
		t.Fatalf("%s: %s: %d rows, summary %+v; want %d rows, done", f.name, what, len(rows), sum, want)
	}
	for _, row := range rows {
		got := row.Result
		if d := dd.of(t, f.request(got)); got.OutputsDigest != d {
			t.Fatalf("%s: %s: row %d (p=%d Θ=%g steps=%d) digest %s, direct run %s",
				f.name, what, row.Index, got.P, got.Theta, got.Steps, got.OutputsDigest, d)
		}
	}
}

// Served ≡ direct for every row family of sweep-heavy's grids: multi at
// d = 1, 2 and 3, multi-theta on a Θ axis and multi-faulty at density
// 0.1. A served row's outputs_digest equals the digest of a direct
// RunSchemeContext run of its tuple whichever way the server answered
// it: as the group's first row, at the share's step count (the share's
// digest, nothing stepped), resumed from the share's state, as an
// unshared group of one, from the result cache, and as a coalesced
// /v1/run.
func TestServedEqualsDirect(t *testing.T) {
	dd := directDigests{}
	for _, f := range lawFamilies {
		s := New(Config{})
		rows, sum := decodeSweep(t, postSweep(t, s.Handler(), f.body(t, false), "?trace=1").Body.String())
		dd.checkRows(t, f, "traced group", rows, sum, 4)
		stepped, shared := replaySpans(sum.Trace)
		resumed := 0
		for _, a := range replayAttrs(sum.Trace) {
			if a["resumed_from"] == float64(f.sweep.Steps[0]) && a["shared"] == 0 {
				resumed++
			}
		}
		if stepped != 2 || shared != 2 || resumed != 1 {
			t.Fatalf("%s: replay spans: %d stepped, %d shared, %d resumed; want 2, 2 and 1", f.name, stepped, shared, resumed)
		}

		rows, sum = decodeSweep(t, postSweep(t, s.Handler(), f.body(t, false), "").Body.String())
		dd.checkRows(t, f, "untraced group", rows, sum, 4)
		rows, sum = decodeSweep(t, postSweep(t, s.Handler(), f.body(t, false), "").Body.String())
		dd.checkRows(t, f, "cached group", rows, sum, 4)
		if sum.CacheHits != 4 {
			t.Fatalf("%s: repeat served %d rows from the cache, want 4", f.name, sum.CacheHits)
		}

		rows, sum = decodeSweep(t, postSweep(t, New(Config{}).Handler(), f.body(t, true), "?trace=1").Body.String())
		dd.checkRows(t, f, "group of one", rows, sum, 1)
		for _, a := range replayAttrs(sum.Trace) {
			if _, ok := a["shared"]; ok {
				t.Fatalf("%s: a group of one replayed under a share", f.name)
			}
		}

		checkCoalescedRun(t, f, dd, rows[0].Result)
	}
}

// checkCoalescedRun sends two identical /v1/runs of a row's tuple while
// the first one's run is held, so the second joins its flight, and
// checks that both carry the direct run's digest.
func checkCoalescedRun(t *testing.T, f lawFamily, dd directDigests, row *RunResponse) {
	t.Helper()
	s := New(Config{})
	hold := make(chan struct{})
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		<-hold
		return s.execute(ctx, req)
	}
	req := f.request(row)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	resps := make([]RunResponse, 2)
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postRun(t, s.Handler(), string(body))
			if w.Code != http.StatusOK {
				t.Errorf("%s: coalesced pair status %d: %s", f.name, w.Code, w.Body)
				return
			}
			resps[i] = decodeRun(t, w)
		}()
	}
	waitFor(t, "the follower to join the leader's flight", func() bool {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		for _, c := range s.flight.calls {
			return c.dups == 1
		}
		return false
	})
	close(hold)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := dd.of(t, req)
	if resps[0].Coalesced == resps[1].Coalesced {
		t.Fatalf("%s: coalesced flags %v and %v, want exactly one", f.name, resps[0].Coalesced, resps[1].Coalesced)
	}
	for _, r := range resps {
		if r.OutputsDigest != want {
			t.Fatalf("%s: /v1/run (coalesced %v) digest %s, direct run %s", f.name, r.Coalesced, r.OutputsDigest, want)
		}
	}
}
