package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"bsmp/internal/obs"
)

// metricsNumbers decodes /metrics the way the repository benchmark
// does (bsmpbench's counters): the "bsmp" object's numeric values by
// key, non-numeric values skipped.
func metricsNumbers(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	var raw struct {
		Bsmp map[string]json.RawMessage `json:"bsmp"`
	}
	if w := getJSON(t, h, "/metrics", &raw); w.Code != http.StatusOK || raw.Bsmp == nil {
		t.Fatalf("/metrics status = %d, body: %s", w.Code, w.Body)
	}
	out := make(map[string]float64)
	for k, v := range raw.Bsmp {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out
}

// promRunsByState sums /metrics.prom's bsmpd_runs_total series by state.
func promRunsByState(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	line := regexp.MustCompile(`(?m)^bsmpd_runs_total\{source="[^"]*",scheme="[^"]*",state="([a-z]+)"\} (\d+)$`)
	for _, m := range line.FindAllStringSubmatch(getBody(t, h, "/metrics.prom"), -1) {
		n, _ := strconv.ParseFloat(m[2], 64)
		out[m[1]] += n
	}
	return out
}

// waitFor polls cond every millisecond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A run whose job returns after its request's 504 is still a done run:
// the job, not the requester, finishes the record, so the record stays
// running (and in flight) until the job returns, then lands done with
// the job's result — the result the cache serves under that run_id.
func TestRunRecordOutlivesDeadline(t *testing.T) {
	s := New(Config{RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		<-release
		return &RunResponse{Scheme: req.Scheme, Time: 7, PrepTime: 3}, nil
	}
	if w := postRun(t, s.Handler(), validRun); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", w.Code, w.Body)
	}

	var running RunsResponse
	getJSON(t, s.Handler(), "/v1/runs?state=running", &running)
	if running.Total != 1 {
		t.Fatalf("running records after the 504 = %d, want 1 (the job still runs)", running.Total)
	}
	id := running.Runs[0].ID
	if m := metricsNumbers(t, s.Handler()); m["inflight_runs"] != 1 || m["runs_cancelled"] != 0 || m["runs"] != 0 {
		t.Fatalf("while the job runs: inflight_runs %v, runs_cancelled %v, runs %v; want 1, 0, 0",
			m["inflight_runs"], m["runs_cancelled"], m["runs"])
	}

	close(release)
	waitFor(t, "the job to land its record", s.registry.Get(id).Terminal)
	w := postRun(t, s.Handler(), validRun)
	if w.Code != http.StatusOK {
		t.Fatalf("repeat status = %d; body: %s", w.Code, w.Body)
	}
	resp := decodeRun(t, w)
	if !resp.Cached || resp.RunID != id || resp.Time != 7 {
		t.Fatalf("repeat = cached %t, run_id %q, time %v; want the cached result of %q with time 7", resp.Cached, resp.RunID, resp.Time, id)
	}
	var rec obs.RunInfo
	getJSON(t, s.Handler(), "/v1/runs/"+id, &rec)
	if rec.State != obs.RunDone || rec.Time != resp.Time || rec.PrepTime != resp.PrepTime || rec.CacheHits != 1 {
		t.Fatalf("record = state %q, time %v, prep %v, cache hits %d; want done, %v, %v, 1",
			rec.State, rec.Time, rec.PrepTime, rec.CacheHits, resp.Time, resp.PrepTime)
	}
	m := metricsNumbers(t, s.Handler())
	if m["runs"] != 1 || m["runs_cancelled"] != 0 || m["inflight_runs"] != 0 || m["deadline_timeouts"] != 1 {
		t.Fatalf("after the job: runs %v, runs_cancelled %v, inflight_runs %v, deadline_timeouts %v; want 1, 0, 0, 1",
			m["runs"], m["runs_cancelled"], m["inflight_runs"], m["deadline_timeouts"])
	}
	if p := promRunsByState(t, s.Handler()); p[obs.RunDone] != 1 || p[obs.RunCancelled] != 0 {
		t.Fatalf("bsmpd_runs_total by state = %v, want done 1 and no cancelled", p)
	}
}

// The repository benchmark decodes /metrics's "bsmp" object and reads
// runs, cache_hits, cache_misses, coalesced and sweep_rows_cached from
// it; this pins those five keys and what they count.
func TestMetricsBenchmarkContract(t *testing.T) {
	s := New(Config{})
	release := make(chan struct{})
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		if req.N == 128 {
			<-release
		}
		return &RunResponse{Scheme: req.Scheme, N: req.N, P: req.P, Time: float64(req.N)}, nil
	}
	postRun(t, s.Handler(), validRun) // miss, executes
	if resp := decodeRun(t, postRun(t, s.Handler(), validRun)); !resp.Cached {
		t.Fatal("repeat not served from the cache")
	}

	// A coalesced pair: the follower joins the leader's flight while the
	// leader's run is held.
	pair := `{"scheme": "multi", "d": 1, "n": 128, "p": 4, "m": 4, "steps": 16}`
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := postRun(t, s.Handler(), pair); w.Code != http.StatusOK {
				t.Errorf("coalesced pair status = %d", w.Code)
			}
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
	close(release)
	wg.Wait()

	// A sweep whose p = 4 row is validRun's cached result and whose p = 8
	// row executes.
	rows, sum := decodeSweep(t, postSweep(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 64, "p": [4, 8], "m": 4, "steps": 16}`, "").Body.String())
	if len(rows) != 2 || sum.CacheHits != 1 {
		t.Fatalf("sweep rows %d, cached %d; want 2, 1", len(rows), sum.CacheHits)
	}

	m := metricsNumbers(t, s.Handler())
	for key, want := range map[string]float64{
		"runs":              3, // validRun, the pair's leader, the sweep's p = 8 row
		"cache_hits":        1,
		"cache_misses":      3, // validRun, and both of the pair
		"coalesced":         1,
		"sweep_rows_cached": 1,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present %t), want %v", key, got, ok, want)
		}
	}
}

// One count per fact: after a done run, a deadline-cancelled run, a
// shed run and an executed sweep row, /metrics, /metrics.prom and
// /v1/runs?state= give each terminal state the same count.
func TestRunCountsAgree(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, RequestTimeout: 500 * time.Millisecond})
	started, release := make(chan struct{}), make(chan struct{})
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		switch req.N {
		case 128: // runs to its deadline
			<-ctx.Done()
			return nil, ctx.Err()
		case 256: // held until the shed run is rejected
			close(started)
			<-release
		}
		return &RunResponse{Scheme: req.Scheme, N: req.N, Time: float64(req.N)}, nil
	}
	tuple := func(n, p int) string {
		return fmt.Sprintf(`{"scheme": "multi", "d": 1, "n": %d, "p": %d, "m": 4, "steps": 16}`, n, p)
	}

	if w := postRun(t, s.Handler(), tuple(128, 4)); w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline run status = %d, want 504", w.Code)
	}
	waitFor(t, "the deadline run's record", func() bool { return s.registry.CompletedCounts()[obs.RunCancelled] == 1 })
	if w := postRun(t, s.Handler(), tuple(64, 4)); w.Code != http.StatusOK {
		t.Fatalf("done run status = %d", w.Code)
	}

	// A held run on the worker and one queued behind it fill the pool;
	// the next distinct tuple is shed. Both then end done.
	var held sync.WaitGroup
	post := func(body string) {
		held.Add(1)
		go func() {
			defer held.Done()
			postRun(t, s.Handler(), body)
		}()
	}
	post(tuple(256, 4))
	<-started
	post(tuple(64, 8))
	waitFor(t, "a queued run", func() bool { return s.pool.QueueDepth() == 1 })
	if w := postRun(t, s.Handler(), tuple(512, 4)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("shed run status = %d, want 429", w.Code)
	}
	close(release)
	held.Wait()

	rows, _ := decodeSweep(t, postSweep(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 1024, "p": 4, "m": 4, "steps": 16}`, "").Body.String())
	if len(rows) != 1 || rows[0].Result == nil {
		t.Fatalf("sweep rows = %+v, want one result", rows)
	}

	want := map[string]float64{obs.RunDone: 4, obs.RunCancelled: 1, obs.RunFailed: 0, obs.RunShed: 1}
	metrics := metricsNumbers(t, s.Handler())
	prom := promRunsByState(t, s.Handler())
	for state, n := range want {
		key := "runs_" + state
		if state == obs.RunDone {
			key = "runs"
		}
		var list RunsResponse
		getJSON(t, s.Handler(), "/v1/runs?state="+state, &list)
		if metrics[key] != n || prom[state] != n || float64(list.Total) != n {
			t.Errorf("%s: /metrics %s %v, /metrics.prom %v, /v1/runs %d; want %v on all three",
				state, key, metrics[key], prom[state], list.Total, n)
		}
	}
	if metrics["inflight_runs"] != 0 {
		t.Errorf("inflight_runs = %v after every run ended", metrics["inflight_runs"])
	}
}
