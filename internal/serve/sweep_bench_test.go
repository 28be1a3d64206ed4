package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkSweepStream measures one cold /v1/sweep round-trip over a
// small real-engine grid: expansion, dedup planning, pool-backed
// execution, and NDJSON streaming. A fresh server per iteration keeps
// the result LRU cold so the benchmark tracks the full sweep path, not
// cache echo (process-global kernel/memo caches warm up once and stay
// stable, as they do in a long-lived daemon).
func BenchmarkSweepStream(b *testing.B) {
	const body = `{"schemes": ["multi"], "d": 1, "n": 64, "p": [2, 4], "m": [4, 8], "steps": 16}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", w.Code, w.Body)
		}
		if !strings.Contains(w.Body.String(), `"done":true`) {
			b.Fatalf("sweep did not complete: %s", w.Body)
		}
	}
}

// BenchmarkSweepReplayGroup measures one cold /v1/sweep of a single
// 4-row replay group, sweep-heavy's d = 3 grid: n = 4096 (a 16³ cube),
// p {64, 512}, m = 4, steps {256, 512}. The group steps its guest 512
// times in all; two rows take the share's digest and one resumes. A
// fresh server per iteration keeps the result cache cold; kernels
// calibrate once, in the first iteration.
func BenchmarkSweepReplayGroup(b *testing.B) {
	const body = `{"schemes": ["multi"], "d": 3, "n": 4096, "p": [64, 512], "m": 4, "steps": [256, 512], "seed": 7}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"done":true`) {
			b.Fatalf("status = %d: %s", w.Code, w.Body)
		}
	}
}
