package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// postSweep issues a /v1/sweep request against the in-memory handler and
// returns the recorder (which implements http.Flusher, so streaming
// works end to end).
func postSweep(t *testing.T, h http.Handler, body, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep"+query, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeSweep splits an NDJSON sweep response into its data rows and the
// terminal summary line, checking every line is valid JSON.
func decodeSweep(t *testing.T, body string) ([]SweepRow, SweepSummary) {
	t.Helper()
	var rows []SweepRow
	var sum SweepSummary
	sawSummary := false
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if sawSummary {
			t.Fatalf("line after summary: %s", line)
		}
		if strings.Contains(line, `"done"`) {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("summary line not valid JSON: %v\n%s", err, line)
			}
			sawSummary = true
			continue
		}
		var row SweepRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row not valid JSON: %v\n%s", err, line)
		}
		rows = append(rows, row)
	}
	if !sawSummary {
		sum.Done = false
	}
	return rows, sum
}

// A sweep over a real grid streams one row per point, every virtual time
// bit-identical to the same tuple's /v1/run answer from an independent
// server (same process-global kernel/memo caches, but a separate result
// LRU — so the equality checks real execution determinism, not cache
// echo).
func TestSweepStreamsGrid(t *testing.T) {
	s := New(Config{})
	body := `{"schemes": ["multi"], "d": 1, "n": 64, "p": [2, 4], "m": [4, 8], "steps": 16}`
	w := postSweep(t, s.Handler(), body, "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d; body: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	rows, sum := decodeSweep(t, w.Body.String())
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if !sum.Done || sum.Points != 4 || sum.Rows != 4 || sum.Errors != 0 {
		t.Fatalf("summary = %+v, want done with 4/4 rows", sum)
	}
	seen := make(map[int]*RunResponse)
	for _, row := range rows {
		if row.Error != nil {
			t.Fatalf("row %d errored: %+v", row.Index, row.Error)
		}
		if row.Result == nil || row.Result.Time <= 0 {
			t.Fatalf("row %d has no positive time: %+v", row.Index, row.Result)
		}
		seen[row.Index] = row.Result
	}
	// Expansion order is deterministic: index 1 is (n=64, p=2, m=8),
	// index 2 is (n=64, p=4, m=4).
	if seen[1].P != 2 || seen[1].M != 8 || seen[2].P != 4 || seen[2].M != 4 {
		t.Fatalf("expansion order wrong: idx1 p=%d m=%d, idx2 p=%d m=%d", seen[1].P, seen[1].M, seen[2].P, seen[2].M)
	}
	// Bit-identical golden check against single runs on a fresh server.
	s2 := New(Config{})
	for idx, want := range seen {
		body := fmt.Sprintf(`{"scheme": "multi", "d": 1, "n": 64, "p": %d, "m": %d, "steps": 16}`, want.P, want.M)
		got := decodeRun(t, postRun(t, s2.Handler(), body))
		if got.Time != want.Time || got.PrepTime != want.PrepTime {
			t.Fatalf("row %d (p=%d m=%d): sweep time %v/%v != run time %v/%v",
				idx, want.P, want.M, want.Time, want.PrepTime, got.Time, got.PrepTime)
		}
	}
}

// Grid points whose canonical tuples coincide run once and stream as
// deduped copies; a repeated sweep is served entirely from the result
// cache with zero new executions.
func TestSweepDedupAndCacheReuse(t *testing.T) {
	s := New(Config{})
	var calls atomic.Int64
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		calls.Add(1)
		return &RunResponse{Scheme: req.Scheme, P: req.P, Time: float64(req.P)}, nil
	}
	// n appears twice and theta [1] duplicates the lockstep default
	// after canonicalization: 2 (n) × 2 (p) × 1 × 1 × 1 (theta) = 4
	// points but only 2 distinct tuples.
	body := `{"schemes": ["multi-theta"], "d": 1, "n": [64, 64], "p": [4, 8], "m": 4, "steps": 16, "theta": [1]}`
	w := postSweep(t, s.Handler(), body, "")
	rows, sum := decodeSweep(t, w.Body.String())
	if len(rows) != 4 || !sum.Done {
		t.Fatalf("rows = %d, done = %v; want 4, true", len(rows), sum.Done)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (intra-grid dedup)", got)
	}
	if sum.Deduped != 2 {
		t.Fatalf("summary deduped = %d, want 2", sum.Deduped)
	}
	deduped := 0
	for _, row := range rows {
		if row.Deduped {
			deduped++
			if row.Result == nil {
				t.Fatalf("deduped row %d carries no result", row.Index)
			}
		}
	}
	if deduped != 2 {
		t.Fatalf("deduped rows = %d, want 2", deduped)
	}

	// The repeat sweep hits the LRU for every point.
	w = postSweep(t, s.Handler(), body, "")
	rows, sum = decodeSweep(t, w.Body.String())
	if len(rows) != 4 || !sum.Done {
		t.Fatalf("repeat rows = %d, done = %v; want 4, true", len(rows), sum.Done)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("executions after repeat = %d, want still 2", got)
	}
	if sum.CacheHits == 0 {
		t.Fatalf("repeat sweep summary reports no cache hits: %+v", sum)
	}
	for _, row := range rows {
		if !row.Deduped && (row.Result == nil || !row.Result.Cached) {
			t.Fatalf("repeat row %d not served from cache: %+v", row.Index, row.Result)
		}
	}
	// A sweep and a plain /v1/run share one cache: the single-run
	// spelling of a swept tuple is a hit too.
	got := decodeRun(t, postRun(t, s.Handler(), `{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 1}}`))
	if !got.Cached {
		t.Fatal("swept tuple not visible to /v1/run through the shared cache")
	}
}

func TestSweepMalformedGrid(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name, body string
		kind       string
		field      string
	}{
		{"no scheme", `{"d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`, "param", "schemes"},
		{"empty axis", `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": []}`, "param", "steps"},
		{"invalid point", `{"scheme": "multi", "d": 1, "n": 64, "p": [4, 7], "m": 4, "steps": 16}`, "param", "p"},
		{"grid too large", `{"scheme": "multi", "d": 1, "n": {"from": 2, "to": 65536, "mul": 2}, "p": 1, "m": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16], "steps": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16], "theta": [1,2]}`, "param", "grid"},
		// Four maximal 65536-value range axes multiply to 65536^4 = 2^64,
		// which wraps to exactly 0 in a naive int product and would slip
		// past the MaxSweepPoints guard into an ~1.8e19-iteration
		// expansion; the running-product check must reject it up front.
		{"grid size overflows int", `{"scheme": "multi", "d": 1, "n": {"from": 1, "to": 65536, "add": 1}, "p": {"from": 1, "to": 65536, "add": 1}, "m": {"from": 1, "to": 65536, "add": 1}, "steps": {"from": 1, "to": 65536, "add": 1}, "skip_invalid": true}`, "param", "grid"},
		{"bad axis syntax", `{"scheme": "multi", "d": 1, "n": "sixtyfour", "p": 4, "m": 4, "steps": 16}`, "body", ""},
		{"range both steps", `{"scheme": "multi", "d": 1, "n": {"from": 2, "to": 8, "add": 2, "mul": 2}, "p": 1, "m": 4, "steps": 16}`, "body", ""},
		{"unknown scheme", `{"scheme": "warp", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`, "param", "scheme"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postSweep(t, s.Handler(), tc.body, "")
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", w.Code, w.Body)
			}
			eb := decodeError(t, w)
			if eb.Error.Kind != tc.kind {
				t.Fatalf("kind = %q, want %q (%s)", eb.Error.Kind, tc.kind, w.Body)
			}
			if tc.field != "" && (eb.Error.Param == nil || eb.Error.Param.Field != tc.field) {
				t.Fatalf("param field = %+v, want %q", eb.Error.Param, tc.field)
			}
		})
	}

	// skip_invalid turns the in-grid invalid point into an error row.
	w := postSweep(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 64, "p": [4, 7], "m": 4, "steps": 16, "skip_invalid": true}`, "")
	if w.Code != http.StatusOK {
		t.Fatalf("skip_invalid status = %d, want 200; body: %s", w.Code, w.Body)
	}
	rows, sum := decodeSweep(t, w.Body.String())
	if len(rows) != 2 || !sum.Done || sum.Errors != 1 {
		t.Fatalf("skip_invalid rows = %d, errors = %d; want 2 rows, 1 error", len(rows), sum.Errors)
	}
	for _, row := range rows {
		if row.Result != nil && row.Error != nil {
			t.Fatalf("row %d has both result and error", row.Index)
		}
	}
}

// Axis range syntax expands deterministically.
func TestAxisRanges(t *testing.T) {
	var a Axis
	if err := json.Unmarshal([]byte(`{"from": 2, "to": 16, "mul": 2}`), &a); err != nil {
		t.Fatal(err)
	}
	if want := (Axis{2, 4, 8, 16}); fmt.Sprint(a) != fmt.Sprint(want) {
		t.Fatalf("mul range = %v, want %v", a, want)
	}
	if err := json.Unmarshal([]byte(`{"from": 8, "to": 20, "add": 4}`), &a); err != nil {
		t.Fatal(err)
	}
	if want := (Axis{8, 12, 16, 20}); fmt.Sprint(a) != fmt.Sprint(want) {
		t.Fatalf("add range = %v, want %v", a, want)
	}
	var f FloatAxis
	if err := json.Unmarshal([]byte(`{"from": 1, "to": 4, "mul": 2}`), &f); err != nil {
		t.Fatal(err)
	}
	if len(f) != 3 || f[0] != 1 || f[2] != 4 {
		t.Fatalf("float range = %v, want [1 2 4]", f)
	}
}

// A traced sweep nests every row's scheme span under one synthetic
// "sweep" root, each annotated with its grid index.
func TestSweepTraceMergesRows(t *testing.T) {
	s := New(Config{})
	body := `{"schemes": ["multi"], "d": 1, "n": 64, "p": [2, 4], "m": 4, "steps": 16}`
	w := postSweep(t, s.Handler(), body, "?trace=1")
	rows, sum := decodeSweep(t, w.Body.String())
	if len(rows) != 2 || !sum.Done {
		t.Fatalf("rows = %d, done = %v", len(rows), sum.Done)
	}
	if len(sum.Trace) != 1 || sum.Trace[0].Name != "sweep" {
		t.Fatalf("summary trace roots = %+v, want one 'sweep' root", sum.Trace)
	}
	root := sum.Trace[0]
	if len(root.Children) != 2 {
		t.Fatalf("sweep root children = %d, want 2", len(root.Children))
	}
	seenIdx := map[float64]bool{}
	for _, c := range root.Children {
		if !strings.HasPrefix(c.Name, "scheme:") {
			t.Fatalf("child span %q, want scheme:*", c.Name)
		}
		if c.StartNS < 0 {
			t.Fatalf("child span StartNS = %d, want >= 0 after rebasing", c.StartNS)
		}
		seenIdx[c.Attrs["index"]] = true
	}
	if !seenIdx[0] || !seenIdx[1] {
		t.Fatalf("child spans index attrs = %v, want {0, 1}", seenIdx)
	}
	// Traced sweeps bypass the cache: rows are never Cached and a
	// repeat re-executes (mirrors /v1/run?trace=1 semantics).
	for _, row := range rows {
		if row.Result.Cached {
			t.Fatalf("traced row %d served from cache", row.Index)
		}
	}
}

// Mid-stream client disconnect (satellite): rows already flushed stay
// valid JSON, all in-flight grid points cancel — runs_cancelled rises by
// their count and inflight_runs returns to zero — and no pool slots
// leak.
func TestSweepClientDisconnectCancelsInflight(t *testing.T) {
	s := New(Config{Workers: 4, SweepParallel: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Real engine, heavy rows: steps=2 completes quickly (the flushed
	// row); the three 512-step blocked d=2 runs take long enough to
	// still be executing when the client disconnects.
	body := `{"scheme": "blocked", "d": 2, "n": 4096, "p": 1, "m": 4, "steps": [2, 512, 513, 514]}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first streamed row: %v", err)
	}
	var row SweepRow
	if err := json.Unmarshal([]byte(line), &row); err != nil {
		t.Fatalf("flushed row not valid JSON: %v\n%s", err, line)
	}
	if row.Error != nil || row.Result == nil {
		t.Fatalf("first row not a result: %+v", row)
	}
	cancel() // client disconnects mid-stream

	// All in-flight rows must cancel: runs_cancelled counts them and the
	// inflight gauge drains. (The steps=2 row may or may not have been
	// the only completion; at least the heavy rows were in flight.)
	deadline := time.Now().Add(15 * time.Second)
	for {
		var cancelled, inflight int
		fmt.Sscanf(metricsInt(t, srv.URL, "runs_cancelled"), "%d", &cancelled)
		fmt.Sscanf(metricsInt(t, srv.URL, "inflight_runs"), "%d", &inflight)
		if cancelled >= 3 && inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation not reflected: runs_cancelled=%d inflight_runs=%d", cancelled, inflight)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := metricsInt(t, srv.URL, "sweeps_cancelled"); got != "1" {
		t.Fatalf("sweeps_cancelled = %s, want 1", got)
	}
	// No leaked pool slots: a fresh run completes on the same pool.
	w := postRun(t, s.Handler(), validRun)
	if w.Code != http.StatusOK {
		t.Fatalf("run after cancelled sweep: status %d, body %s", w.Code, w.Body)
	}
	if got := s.pool.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after cancelled sweep = %d, want 0", got)
	}
}

// metricsInt fetches one numeric counter from the live /metrics endpoint.
func metricsInt(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Bsmp map[string]json.RawMessage `json:"bsmp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(payload.Bsmp[name]))
}

// Shutting the server down mid-sweep cancels the stream through baseCtx
// without wedging Shutdown.
func TestSweepServerShutdownCancels(t *testing.T) {
	s := New(Config{Workers: 2})
	release := make(chan struct{})
	var blocked atomic.Int64
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		blocked.Add(1)
		select {
		case <-release:
			return &RunResponse{Time: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- postSweep(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 64, "p": [2, 4], "m": 4, "steps": 16}`, "")
	}()
	for blocked.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	s.Shutdown(ctx)
	close(release)
	select {
	case w := <-done:
		rows, sum := decodeSweep(t, w.Body.String())
		if sum.Done && sum.Errors == 0 && len(rows) == 2 {
			return // sweep won the race and completed before drain — fine
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep handler did not return after Shutdown")
	}
}
