package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkRunRegistryOn measures one cold /v1/run round-trip —
// validation, pool execution with its run record (record tracer
// attached), the real multi-scheme engine, response encoding — on a
// fresh server each iteration.
func BenchmarkRunRegistryOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(validRun))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkRunsListing measures GET /v1/runs over a populated registry:
// 64 completed records snapshotted, filtered and paginated per request.
func BenchmarkRunsListing(b *testing.B) {
	s := New(Config{})
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		return &RunResponse{Scheme: req.Scheme, N: req.N, Time: float64(req.N)}, nil
	}
	for n := 0; n < 64; n++ {
		body := fmt.Sprintf(`{"scheme": "multi", "d": 1, "n": %d, "p": 4, "m": 4, "steps": 16}`, 64+4*n)
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("seed run status = %d: %s", w.Code, w.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/runs?state=done&limit=50", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("listing status = %d", w.Code)
		}
	}
}
