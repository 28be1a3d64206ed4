package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bsmp/internal/serve"
)

func TestParseProm(t *testing.T) {
	text := `# HELP bsmpd_runs something
# TYPE bsmpd_runs gauge
bsmpd_runs 7
bsmpd_runs_active{state="running",scheme="multi"} 2
bsmpd_run_latency_seconds_quantile{q="0.5"} 0.0123

garbage line without value
bsmpd_bad_value{x="y"} notanumber
`
	m := parseProm(text)
	if m["bsmpd_runs"] != 7 {
		t.Errorf("bsmpd_runs = %v, want 7", m["bsmpd_runs"])
	}
	if m[`bsmpd_runs_active{state="running",scheme="multi"}`] != 2 {
		t.Errorf("labeled gauge = %v, want 2", m[`bsmpd_runs_active{state="running",scheme="multi"}`])
	}
	if m[`bsmpd_run_latency_seconds_quantile{q="0.5"}`] != 0.0123 {
		t.Errorf("quantile = %v, want 0.0123", m[`bsmpd_run_latency_seconds_quantile{q="0.5"}`])
	}
	if _, ok := m[`bsmpd_bad_value{x="y"}`]; ok {
		t.Error("unparsable value survived")
	}
	if got := promByLabel(m, "bsmpd_runs_active", "state"); len(got) != 1 || got["running"] != 2 {
		t.Errorf("promByLabel(runs_active, state) = %v, want running 2", got)
	}
	// promByLabel must not fold the _active series into a metric whose
	// name is its prefix.
	if got := promByLabel(m, "bsmpd_runs", "state"); len(got) != 0 {
		t.Errorf("promByLabel(runs, state) = %v, want empty", got)
	}
}

func TestProgressBar(t *testing.T) {
	for _, tc := range []struct {
		done, total int64
		want        string
	}{
		{0, 10, "[..........]   0%"},
		{5, 10, "[#####.....]  50%"},
		{10, 10, "[##########] 100%"},
		{25, 10, "[##########] 100%"}, // overshoot clamps
		{3, 0, "[~~~~~~~~~~]   ?%"},   // unknown target
	} {
		if got := progressBar(tc.done, tc.total, 10); got != tc.want {
			t.Errorf("progressBar(%d, %d) = %q, want %q", tc.done, tc.total, got, tc.want)
		}
	}
}

func TestRunTarget(t *testing.T) {
	params := map[string]any{"n": float64(64), "steps": float64(16), "p": float64(4)}
	if got := runTarget(params); got != 1024 {
		t.Errorf("runTarget = %d, want 1024", got)
	}
	if got := runTarget(nil); got != 0 {
		t.Errorf("runTarget(nil) = %d, want 0", got)
	}
	if got := runTarget(map[string]any{"n": float64(64)}); got != 0 {
		t.Errorf("runTarget without steps = %d, want 0", got)
	}
}

// TestBuildFrameAgainstLiveServer renders a frame off a real in-process
// bsmpd after one completed run: the frame must show the serving strip
// counting that run and its cache miss, the completed-done counter, the
// run's scheme latency quantiles, and the run's record row.
func TestBuildFrameAgainstLiveServer(t *testing.T) {
	s := serve.New(serve.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/run", "application/json",
		strings.NewReader(`{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`))
	if err != nil {
		t.Fatalf("seed run: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run status = %d", resp.StatusCode)
	}

	frame, err := buildFrame(srv.Client(), srv.URL, 20)
	if err != nil {
		t.Fatalf("buildFrame: %v", err)
	}
	for _, want := range []string{
		"bsmptop — " + srv.URL,
		"1 run(s) in registry",
		"serving   runs 1  cache 0/1 hit/miss  coalesced 0  shed 0",
		"completed done 1",
		"latency   multi", "p50 ", "p99 ",
		"multi", "done", "[####################] 100%",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q\nframe:\n%s", want, frame)
		}
	}
}
