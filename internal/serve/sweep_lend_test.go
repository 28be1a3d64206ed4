package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bsmp"
	"bsmp/internal/network"
)

// serveSweep serves one sweep on s and returns its rows and summary,
// failing the test when the handler has not returned within limit.
func serveSweep(t *testing.T, s *Server, body, query string, limit time.Duration) ([]SweepRow, SweepSummary) {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweep"+query, strings.NewReader(body)))
		done <- w
	}()
	select {
	case w := <-done:
		return decodeSweep(t, w.Body.String())
	case <-time.After(limit):
		t.Fatalf("sweep did not complete within %v", limit)
		return nil, SweepSummary{}
	}
}

// directDigest is the outputs digest of a direct multi run of the
// mixca guest of seed 3.
func directDigest(t *testing.T, d, n, p, m, steps int) string {
	t.Helper()
	req := RunRequest{Scheme: "multi", D: d, N: n, P: p, M: m, Steps: steps, Guest: "mixca", Seed: 3}
	res, err := bsmp.RunSchemeContext(context.Background(), "multi", d, n, p, m, steps, buildGuest(req), req.schemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}

// checkDigests fails unless every row carries the outputs digest of a
// direct run of its tuple.
func checkDigests(t *testing.T, name string, rows []SweepRow, want map[string]string) {
	t.Helper()
	for _, row := range rows {
		if row.Result == nil {
			t.Fatalf("%s: row %d: %+v", name, row.Index, row.Error)
		}
		k := fmt.Sprintf("%d/%d", row.Result.N, row.Result.Steps)
		if row.Result.OutputsDigest != want[k] {
			t.Fatalf("%s: row %d (n/steps %s) digest %s, direct run %s", name, row.Index, k, row.Result.OutputsDigest, want[k])
		}
	}
}

// A sweep of two guests at two step counts completes at every pairing
// of one or two workers with one to three sweep slots — with helpers
// attached where a slot and a worker are free, and with a helper's pool
// job queued behind the only worker where they are not — and every row
// equals a direct run. With one sweep slot no helper ever attaches.
func TestSweepLendingCompletes(t *testing.T) {
	const body = `{"schemes": ["multi"], "d": 1, "n": [1024, 2048], "p": [8], "m": 4, "steps": [64, 128], "seed": 3}`
	want := map[string]string{}
	for _, n := range []int{1024, 2048} {
		for _, steps := range []int{64, 128} {
			want[fmt.Sprintf("%d/%d", n, steps)] = directDigest(t, 1, n, 8, 4, steps)
		}
	}
	for _, workers := range []int{1, 2} {
		for _, slots := range []int{1, 2, 3} {
			name := fmt.Sprintf("workers=%d/sweep-parallel=%d", workers, slots)
			s := New(Config{Workers: workers, SweepParallel: slots})
			rows, sum := serveSweep(t, s, body, "?trace=1", 60*time.Second)
			if len(rows) != 4 || !sum.Done || sum.Errors != 0 {
				t.Fatalf("%s: %d rows, summary %+v", name, len(rows), sum)
			}
			checkDigests(t, name, rows, want)
			var vertices float64
			for _, a := range replayAttrs(sum.Trace) {
				vertices += a["vertices"]
				if slots == 1 && a["helped_steps"] != 0 {
					t.Fatalf("%s: a replay took %v helped steps with one sweep slot", name, a["helped_steps"])
				}
			}
			if vertices != (1024+2048)*128 {
				t.Fatalf("%s: replays stepped %v vertices, want %d (each guest once)", name, vertices, (1024+2048)*128)
			}
			if n := len(s.sweepSem); n != 0 {
				t.Fatalf("%s: %d sweep slots held after the sweep returned", name, n)
			}
		}
	}
}

// awaitHelper is a served guest whose replay waits for its lent helper
// instead of racing it. On a loaded host the two goroutines of a helped
// replay need not run at once: a helper attached for all of a 4096-node
// replay's ~1,800 split steps can still claim none of them, since it only
// sees an offered upper half while the stepping goroutine is inside the
// step's lower half (23 of 800 runs failed that way beside two busy
// loops on a 2-vCPU host). So the lower half of a split step waits until the
// helper has begun the upper half, and every whole-row step of a guest
// that may take a helper sleeps a millisecond, which gives the lend a
// second, not ~30 ms, to attach before the replay ends. Outputs are
// MixCA's: only the timing changes.
type awaitHelper struct {
	bsmp.Program
	upper *atomic.Int64 // the last step whose upper half began
}

func (w awaitHelper) StepRow(r *network.Row) bool {
	switch {
	case r.Lo > 0:
		w.upper.Store(int64(r.T))
	case r.Hi < len(r.Out):
		for w.upper.Load() != int64(r.T) {
			runtime.Gosched()
		}
	case r.T > 1 && len(r.Out) >= network.SplitMin:
		time.Sleep(time.Millisecond)
	}
	return w.Program.(network.RowProgram).StepRow(r)
}

// One replay group on two workers and two sweep slots: the group's
// longer row resumes from the shorter one's state, the idle slot is lent
// to the running replay, a helper takes half of its steps, and every row
// equals a direct run.
func TestSweepLendsIdleSlot(t *testing.T) {
	s := New(Config{Workers: 2, SweepParallel: 2})
	upper := new(atomic.Int64)
	s.guest = func(req RunRequest) bsmp.Program { return awaitHelper{buildGuest(req), upper} }
	body := `{"schemes": ["multi"], "d": 1, "n": 4096, "p": [8, 16], "m": 4, "steps": [1024, 2048], "seed": 3}`
	rows, sum := serveSweep(t, s, body, "?trace=1", 120*time.Second)
	if len(rows) != 4 || !sum.Done || sum.Errors != 0 {
		t.Fatalf("%d rows, summary %+v", len(rows), sum)
	}
	checkDigests(t, "lend", rows, map[string]string{
		"4096/1024": directDigest(t, 1, 4096, 8, 4, 1024),
		"4096/2048": directDigest(t, 1, 4096, 8, 4, 2048),
	})
	var vertices, helped float64
	resumed := 0
	for _, a := range replayAttrs(sum.Trace) {
		vertices += a["vertices"]
		helped += a["helped_steps"]
		if a["resumed_from"] == 1024 && a["vertices"] == 4096*1024 {
			resumed++
		}
	}
	if vertices != 4096*2048 || resumed != 1 {
		t.Fatalf("replays stepped %v vertices with %d resumes, want %d and 1", vertices, resumed, 4096*2048)
	}
	if helped == 0 {
		t.Fatal("no replay step took a helper, with a sweep slot and a worker idle")
	}
}

// While a helper holds the second worker of a long replay, a /v1/run
// waits at most a step for it: the run completes while the replay still
// runs, with a queue wait under half the time since the helper attached.
// A helper that never left would hold the run until the replay's end,
// far more than the 20 ms the test waits first, while a helper that
// leaves within a step keeps the wait to scheduling noise: a few ms on a
// loaded 2-vCPU host, which a bound of a tenth of a 5 ms window did not
// absorb. Cancelling the sweep then detaches the helper, frees both
// sweep slots and leaves no goroutine behind.
func TestSweepHelperYieldsAndCancels(t *testing.T) {
	s := New(Config{Workers: 2, SweepParallel: 2})
	if w := postRun(t, s.Handler(), validRun); w.Code != http.StatusOK {
		t.Fatalf("warm-up run: status %d, body %s", w.Code, w.Body)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"schemes": ["multi"], "d": 1, "n": 16384, "p": [8, 16], "m": 4, "steps": 4096}`
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep?trace=1", strings.NewReader(body)).WithContext(ctx)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		done <- w
	}()

	deadline := time.Now().Add(60 * time.Second)
	for !replaying(s) || len(s.sweepSem) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the replay never took a helper")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The lend has its slot; give its pool job a moment to attach and
	// the replay some wall to measure the run's queue wait against.
	start := time.Now()
	time.Sleep(20 * time.Millisecond)

	other := strings.Replace(validRun, `"p": 4`, `"p": 8`, 1)
	w := postRun(t, s.Handler(), other)
	ran := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("run during the helped replay: status %d, body %s", w.Code, w.Body)
	}
	if !replaying(s) {
		t.Fatal("the replay ended before the run completed; the run says nothing about the helper")
	}
	info := s.registry.Get(decodeRun(t, w).RunID).Snapshot(false)
	if info.QueueMS > float64(ran.Nanoseconds())/1e6/2 {
		t.Fatalf("run queued %.3f ms behind the helper; the replay had run %v", info.QueueMS, ran)
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
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the sweep", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
