package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"bsmp"
)

// postRunTraced is postRun against /v1/run?trace=1.
func postRunTraced(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/run?trace=1", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRunTraceInlineTimeline(t *testing.T) {
	s := New(Config{})
	w := postRunTraced(t, s.Handler(), validRun)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", w.Code, w.Body)
	}
	resp := decodeRun(t, w)
	if len(resp.Trace) == 0 {
		t.Fatal("traced response carries no spans")
	}
	root := resp.Trace[0]
	if !strings.HasPrefix(root.Name, "scheme:") {
		t.Errorf("root span = %q, want scheme:*", root.Name)
	}
	if len(root.Children) == 0 {
		t.Fatal("root span has no children")
	}

	// The schedule span's phase children telescope to the makespan.
	full := resp.Time + resp.PrepTime
	found := false
	var walk func(sp *bsmp.Span) bool
	walk = func(sp *bsmp.Span) bool {
		if sp.Name == "schedule" && len(sp.Children) > 0 {
			var sum float64
			for _, c := range sp.Children {
				sum += c.Attrs["vtime"]
			}
			if math.Abs(sum-full) > 1e-9*full {
				t.Errorf("phase vtimes sum to %v, want %v", sum, full)
			}
			return true
		}
		for _, c := range sp.Children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	for _, r := range resp.Trace {
		if walk(r) {
			found = true
		}
	}
	if !found {
		t.Error("no schedule span with phase children in timeline")
	}

	// A traced run never comes from or fills the cache.
	w2 := postRunTraced(t, s.Handler(), validRun)
	if resp2 := decodeRun(t, w2); resp2.Cached {
		t.Error("second traced response served from cache")
	}
	w3 := postRun(t, s.Handler(), validRun)
	if resp3 := decodeRun(t, w3); resp3.Cached {
		t.Error("untraced response served from a traced run's cache entry")
	}
}

func TestMetricsPromFormat(t *testing.T) {
	s := New(Config{})
	// Execute one run so every histogram has at least one observation.
	if w := postRun(t, s.Handler(), validRun); w.Code != http.StatusOK {
		t.Fatalf("run status = %d; body: %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics.prom", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	body := w.Body.String()

	line := regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN))$`)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		if l := sc.Text(); l != "" && !line.MatchString(l) {
			t.Errorf("malformed exposition line: %q", l)
		}
	}
	for _, hist := range []struct{ name, labels string }{
		{"bsmpd_run_latency_seconds", `scheme="multi",`},
		{"bsmpd_queue_wait_seconds", ""},
		{"bsmpd_run_vertices", ""},
	} {
		if !strings.Contains(body, "# TYPE "+hist.name+" histogram") {
			t.Errorf("missing TYPE line for %s", hist.name)
		}
		if !strings.Contains(body, hist.name+"_bucket{"+hist.labels+`le="+Inf"} 1`) {
			t.Errorf("%s has no +Inf bucket holding the run", hist.name)
		}
	}
	// The counter table renders as counters.
	if !strings.Contains(body, "# TYPE bsmpd_requests counter\nbsmpd_requests ") {
		t.Error("missing bsmpd_requests counter")
	}
	// The unified memo store's scalar gauges render numerically, and the
	// per-(kind, level) breakdown renders as labeled series (a run through
	// the blocked engine touches at least one level).
	for _, g := range []string{"bsmpd_memo_entries ", "bsmpd_memo_hits ", "bsmpd_memo_misses ", "bsmpd_memo_evictions ", "bsmpd_memo_capacity "} {
		if !strings.Contains(body, g) {
			t.Errorf("missing %s gauge", strings.TrimSpace(g))
		}
	}
	if !strings.Contains(body, `bsmpd_memo_level_hits{kind=`) {
		t.Error("missing per-level memo series")
	}
}

func TestRequestIDAndAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})

	w := postRun(t, s.Handler(), validRun)
	id := w.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("response missing X-Request-Id")
	}

	var access, runStart, runDone bool
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		if rec["id"] != id {
			continue
		}
		switch rec["msg"] {
		case "request":
			access = true
			if rec["path"] != "/v1/run" {
				t.Errorf("access log path = %v", rec["path"])
			}
			if rec["status"] != float64(200) {
				t.Errorf("access log status = %v", rec["status"])
			}
		case "run start":
			runStart = true
		case "run done":
			runDone = true
		}
	}
	if !access {
		t.Error("no access log line with the response's request ID")
	}
	if !runStart || !runDone {
		t.Errorf("lifecycle lines: start=%t done=%t, want both", runStart, runDone)
	}

	// IDs are unique per request.
	w2 := postRun(t, s.Handler(), validRun)
	if id2 := w2.Header().Get("X-Request-Id"); id2 == "" || id2 == id {
		t.Errorf("second request ID %q, want distinct non-empty", id2)
	}
}
