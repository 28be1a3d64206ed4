package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsmp"
)

func postRun(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeRun(t *testing.T, w *httptest.ResponseRecorder) RunResponse {
	t.Helper()
	var resp RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding run response: %v\nbody: %s", err, w.Body)
	}
	return resp
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decoding error body: %v\nbody: %s", err, w.Body)
	}
	return eb
}

const validRun = `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`

func TestRunValidAndCached(t *testing.T) {
	s := New(Config{})
	w := postRun(t, s.Handler(), validRun)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", w.Code, w.Body)
	}
	first := decodeRun(t, w)
	if first.Cached {
		t.Fatal("first response marked cached")
	}
	if first.Time <= 0 {
		t.Fatalf("Time = %v, want > 0", first.Time)
	}
	if len(first.Ledger) == 0 {
		t.Fatal("ledger empty")
	}
	if len(first.Phases) == 0 {
		t.Fatal("phases empty for multi d=1")
	}
	if first.Bound <= 0 {
		t.Fatal("theorem1_bound missing")
	}

	w = postRun(t, s.Handler(), validRun)
	second := decodeRun(t, w)
	if !second.Cached {
		t.Fatal("identical repeat not served from cache")
	}
	if second.Time != first.Time {
		t.Fatalf("cached Time %v != original %v", second.Time, first.Time)
	}
	if hits := s.ctr.n[ctrCacheHits].Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

func TestRunDistinctConfigsNotAliased(t *testing.T) {
	s := New(Config{})
	a := decodeRun(t, postRun(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`))
	b := decodeRun(t, postRun(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"no_rearrange": true}}`))
	if b.Cached {
		t.Fatal("request with different config served from cache")
	}
	if a.Time == b.Time && a.PrepTime == b.PrepTime {
		t.Fatal("ablated run identical to full run — config not reaching the scheme")
	}
}

// Regression: the cache key used to serialize the raw request tuple, so
// semantically identical spellings — theta omitted vs explicitly 1,
// theta_seed defaulted vs explicit 0, guest omitted vs "mixca" — split
// into distinct cache entries and duplicate executions. Canonicalization
// must collapse the whole equivalence class onto ONE entry and ONE
// execution.
func TestCacheKeyCanonicalizesDefaults(t *testing.T) {
	s := New(Config{})
	var calls atomic.Int64
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		calls.Add(1)
		return &RunResponse{Scheme: req.Scheme, Time: 42}, nil
	}
	spellings := []string{
		`{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`,
		`{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 1}}`,
		`{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 1, "theta_seed": 0}}`,
		// theta_seed only selects delay draws when a Θ-model is active;
		// at the lockstep-equivalent Θ = 1 it is inert.
		`{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 1, "theta_seed": 7}}`,
		`{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "guest": "mixca"}`,
		// fault_seed only selects fault draws when the density is
		// nonzero; at the default faults = 0 it is inert.
		`{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"fault_seed": 9}}`,
	}
	for i, body := range spellings {
		w := postRun(t, s.Handler(), body)
		if w.Code != http.StatusOK {
			t.Fatalf("spelling %d: status = %d; body: %s", i, w.Code, w.Body)
		}
		resp := decodeRun(t, w)
		if i == 0 && resp.Cached {
			t.Fatal("first spelling marked cached")
		}
		if i > 0 && !resp.Cached {
			t.Fatalf("spelling %d executed instead of hitting the canonical cache entry: %s", i, spellings[i])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 for %d equivalent spellings", got, len(spellings))
	}
	if got := s.cache.Len(); got != 1 {
		t.Fatalf("cache entries = %d, want 1 for %d equivalent spellings", got, len(spellings))
	}
	// A genuinely different theta still gets its own entry and run.
	w := postRun(t, s.Handler(), `{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 2, "theta_seed": 7}}`)
	if resp := decodeRun(t, w); resp.Cached {
		t.Fatal("theta=2 aliased the lockstep-default entry")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("executions after theta=2 = %d, want 2", got)
	}
	if got := s.cache.Len(); got != 2 {
		t.Fatalf("cache entries after theta=2 = %d, want 2", got)
	}
	// Validation still judges the request as written: the lockstep multi
	// scheme rejects an explicit theta even though canonicalization would
	// have erased a theta of 1.
	w = postRun(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 1}}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("lockstep multi with explicit theta: status = %d, want 400", w.Code)
	}
}

func TestRunInvalidParams(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name, body, field string
	}{
		{"non-square n for naive d=2", `{"scheme": "naive", "d": 2, "n": 10, "p": 1, "m": 4, "steps": 4}`, "n"},
		{"p does not divide n", `{"scheme": "multi", "d": 1, "n": 64, "p": 5, "m": 4, "steps": 8}`, "p"},
		{"zero m", `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 0, "steps": 8}`, "m"},
		{"negative steps", `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": -1}`, "steps"},
		{"unidc needs m=1", `{"scheme": "unidc", "d": 1, "n": 64, "p": 1, "m": 4, "steps": 8}`, "m"},
		{"over server n cap", `{"scheme": "multi", "d": 1, "n": 1048576, "p": 4, "m": 4, "steps": 8}`, "n"},
		{"unknown guest", `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 8, "guest": "life"}`, "guest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postRun(t, s.Handler(), tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", w.Code, w.Body)
			}
			eb := decodeError(t, w)
			if eb.Error.Kind != "param" {
				t.Fatalf("kind = %q, want param", eb.Error.Kind)
			}
			if eb.Error.Param == nil || eb.Error.Param.Field != tc.field {
				t.Fatalf("param = %+v, want field %q", eb.Error.Param, tc.field)
			}
		})
	}
}

func TestRunUnknownScheme(t *testing.T) {
	s := New(Config{})
	w := postRun(t, s.Handler(), `{"scheme": "quantum", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 8}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	eb := decodeError(t, w)
	if eb.Error.Param == nil || eb.Error.Param.Field != "scheme" {
		t.Fatalf("param = %+v, want field scheme", eb.Error.Param)
	}
}

func TestRunMalformedBody(t *testing.T) {
	s := New(Config{})
	for _, body := range []string{`{"scheme": `, `{"scheme": "multi", "bogus_field": 1}`} {
		w := postRun(t, s.Handler(), body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status = %d for %q, want 400", w.Code, body)
		}
		if eb := decodeError(t, w); eb.Error.Kind != "body" {
			t.Fatalf("kind = %q, want body", eb.Error.Kind)
		}
	}
}

func TestRunMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/run", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", w.Code)
	}
}

// TestRunStormOfInvalidRequests is the headline bugfix scenario: a storm
// of malformed tuples (the exact shapes that panicked internal
// constructors before the validation boundary) must all come back as
// structured 400s with the daemon still healthy.
func TestRunStormOfInvalidRequests(t *testing.T) {
	s := New(Config{})
	bodies := []string{
		`{"scheme": "naive", "d": 2, "n": 10, "p": 1, "m": 4, "steps": 4}`,
		`{"scheme": "blocked", "d": 2, "n": 10, "p": 1, "m": 1, "steps": 4}`,
		`{"scheme": "blocked", "d": 3, "n": 10, "p": 1, "m": 1, "steps": 4}`,
		`{"scheme": "multi", "d": 2, "n": 10, "p": 2, "m": 1, "steps": 4}`,
		`{"scheme": "multi", "d": 1, "n": 64, "p": 7, "m": 4, "steps": 4}`,
		`{"scheme": "unidc", "d": 1, "n": 64, "p": 2, "m": 1, "steps": 4}`,
		`{"scheme": "naive", "d": 1, "n": 0, "p": 1, "m": 1, "steps": 1}`,
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range bodies {
				w := postRun(t, s.Handler(), b)
				if w.Code != http.StatusBadRequest {
					t.Errorf("storm body %s: status %d, want 400", b, w.Code)
				}
			}
		}()
	}
	wg.Wait()
	// The daemon still serves valid traffic.
	if w := postRun(t, s.Handler(), validRun); w.Code != http.StatusOK {
		t.Fatalf("valid request after storm: status %d", w.Code)
	}
}

func TestRunCoalescesConcurrentDuplicates(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 16})
	var calls atomic.Int64
	release := make(chan struct{})
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		calls.Add(1)
		<-release
		return &RunResponse{Scheme: req.Scheme, Time: 1}, nil
	}
	const clients = 6
	var wg sync.WaitGroup
	codes := make([]int, clients)
	coalesced := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postRun(t, s.Handler(), validRun)
			codes[i] = w.Code
			if w.Code == http.StatusOK {
				coalesced[i] = decodeRun(t, w).Coalesced
			}
		}(i)
	}
	// Wait for the leader to start, give duplicates time to attach.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("simulation ran %d times for %d identical concurrent requests, want 1", n, clients)
	}
	var shared int
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("client %d: status %d", i, c)
		}
		if coalesced[i] {
			shared++
		}
	}
	if shared != clients-1 {
		t.Fatalf("%d responses marked coalesced, want %d", shared, clients-1)
	}
}

// A coalesced /v1/run whose own client is still connected does not
// inherit the leader's disconnect: the leader gets 499, the follower
// runs the simulation itself and gets 200.
func TestRunFollowerOutlivesLeaderDisconnect(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	var calls atomic.Int64
	leaderRunning := make(chan struct{})
	s.runScheme = func(ctx context.Context, req RunRequest) (*RunResponse, error) {
		if calls.Add(1) == 1 {
			close(leaderRunning)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &RunResponse{Scheme: req.Scheme, Time: 1}, nil
	}
	h := s.Handler()
	lctx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(validRun)).WithContext(lctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		leader <- w
	}()
	<-leaderRunning
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { follower <- postRun(t, h, validRun) }()
	for joined := false; !joined; time.Sleep(time.Millisecond) {
		s.flight.mu.Lock()
		for _, c := range s.flight.calls {
			joined = c.dups > 0
		}
		s.flight.mu.Unlock()
	}
	disconnect()

	if w := <-leader; w.Code != 499 || decodeError(t, w).Error.Kind != "cancelled" {
		t.Fatalf("leader: status %d body %s, want 499 cancelled", w.Code, w.Body)
	}
	w := <-follower
	if w.Code != http.StatusOK {
		t.Fatalf("follower: status %d body %s, want 200", w.Code, w.Body)
	}
	if decodeRun(t, w).Coalesced {
		t.Fatal("follower ran the simulation itself but is marked coalesced")
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("simulation ran %d times, want 2 (the cancelled leader, then the follower)", n)
	}
}

func TestRunQueueFull429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		started <- struct{}{}
		<-release
		return &RunResponse{Time: 1}, nil
	}
	// Distinct bodies so coalescing cannot absorb the burst.
	body := func(i int) string {
		return fmt.Sprintf(`{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": %d}`, 8+i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupy the lone worker; with no queue the submission itself can
		// shed if the worker has not parked yet, so retry until it lands.
		for {
			w := postRun(t, s.Handler(), body(0))
			if w.Code != http.StatusTooManyRequests {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-started

	deadline := time.Now().Add(2 * time.Second)
	got429 := false
	for i := 1; !got429; i++ {
		w := postRun(t, s.Handler(), body(i))
		switch w.Code {
		case http.StatusTooManyRequests:
			if eb := decodeError(t, w); eb.Error.Kind != "queue_full" {
				t.Fatalf("kind = %q, want queue_full", eb.Error.Kind)
			}
			got429 = true
		case http.StatusOK:
			t.Fatalf("request %d succeeded while worker blocked", i)
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed 429")
		}
	}
	close(release)
	wg.Wait()
}

func TestRunDeadline504(t *testing.T) {
	s := New(Config{RequestTimeout: 30 * time.Millisecond})
	release := make(chan struct{})
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		<-release
		return &RunResponse{Time: 1}, nil
	}
	w := postRun(t, s.Handler(), validRun)
	close(release)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", w.Code, w.Body)
	}
	if eb := decodeError(t, w); eb.Error.Kind != "deadline" {
		t.Fatalf("kind = %q, want deadline", eb.Error.Kind)
	}
}

// A cancelled context (client disconnect, sweep abort) is not a missed
// deadline: it must classify as "cancelled" and leave deadline_timeouts
// untouched — a disconnected sweep would otherwise bump that counter
// once per in-flight grid point.
func TestClassifyCancelledNotDeadline(t *testing.T) {
	s := New(Config{})
	status, detail := s.classifyRunError(context.Canceled)
	if status != 499 || detail.Kind != "cancelled" {
		t.Fatalf("canceled -> (%d, %q), want (499, cancelled)", status, detail.Kind)
	}
	if v := s.ctr.n[ctrDeadlineTimeouts].Load(); v != 0 {
		t.Fatalf("deadline_timeouts = %d after cancel, want 0", v)
	}
	status, detail = s.classifyRunError(context.DeadlineExceeded)
	if status != http.StatusGatewayTimeout || detail.Kind != "deadline" {
		t.Fatalf("deadline -> (%d, %q), want (504, deadline)", status, detail.Kind)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) {
		once.Do(func() { close(started) })
		<-release
		return &RunResponse{Time: 1}, nil
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postRun(t, s.Handler(), validRun) }()
	<-started

	// Shutdown concurrently with the in-flight run.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Wait for the drain flag to be visible, then verify new requests are
	// refused (posting earlier could enqueue behind the blocked worker and
	// stall for the full request timeout).
	deadline := time.Now().Add(2 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never set the draining flag")
		}
		time.Sleep(time.Millisecond)
	}
	if w := postRun(t, s.Handler(), `{"scheme": "multi", "d": 1, "n": 32, "p": 4, "m": 4, "steps": 8}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("run while draining = %d, want 503", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", w.Code)
	}

	close(release) // let the in-flight simulation finish
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", w.Code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	s := New(Config{})
	s.runScheme = func(_ context.Context, req RunRequest) (*RunResponse, error) { panic("boom") }
	w := postRun(t, s.Handler(), validRun)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	if eb := decodeError(t, w); eb.Error.Kind != "internal" {
		t.Fatalf("kind = %q, want internal", eb.Error.Kind)
	}
	// The daemon survives and serves the next request.
	s.runScheme = s.execute
	if w := postRun(t, s.Handler(), validRun); w.Code != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d", w.Code)
	}
}

func TestBounds(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/bounds?d=1&n=4096&p=16&m=4", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d; body: %s", w.Code, w.Body)
	}
	var br BoundsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if br.A < 1 || br.Slowdown < br.Brent || br.OptimalS <= 0 {
		t.Fatalf("implausible bounds payload: %+v", br)
	}

	for _, q := range []string{"", "d=1&n=4096&p=16", "d=1&n=4096&p=16&m=x", "d=9&n=4096&p=16&m=4", "d=1&n=16&p=32&m=4"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/bounds?"+q, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, w.Code)
		}
	}
}

func TestSchemes(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/schemes", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var list []SchemeInfo
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(list) != 18 {
		t.Fatalf("got %d schemes, want 18", len(list))
	}
}

// The Θ-model scheme serves through the same handler stack: the theta
// config field reaches the engine (slower run, echoed back), distinct
// Θ values never alias in the cache, and a sub-1 ratio is a 400 with a
// typed param error before any execution.
func TestRunThetaScheme(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	base := postRun(t, h, `{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`)
	if base.Code != http.StatusOK {
		t.Fatalf("theta default: status = %d; body: %s", base.Code, base.Body)
	}
	slow := postRun(t, h, `{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 3, "theta_seed": 7}}`)
	if slow.Code != http.StatusOK {
		t.Fatalf("theta=3: status = %d; body: %s", slow.Code, slow.Body)
	}
	rb, rs := decodeRun(t, base), decodeRun(t, slow)
	if rs.Theta != 3 {
		t.Errorf("theta echo = %v, want 3", rs.Theta)
	}
	if rs.Cached {
		t.Error("theta=3 run hit the cache of the theta-default run")
	}
	if rs.Time <= rb.Time {
		t.Errorf("theta=3 Time %v not above default %v", rs.Time, rb.Time)
	}
	bad := postRun(t, h, `{"scheme": "multi-theta", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 0.5}}`)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("theta=0.5: status = %d, want 400; body: %s", bad.Code, bad.Body)
	}
	if eb := decodeError(t, bad); eb.Error.Param == nil || eb.Error.Param.Field != "theta" {
		t.Errorf("theta=0.5 error = %+v, want param error on theta", eb)
	}
	lockBad := postRun(t, h, `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"theta": 2}}`)
	if lockBad.Code != http.StatusBadRequest {
		t.Fatalf("multi with theta: status = %d, want 400; body: %s", lockBad.Code, lockBad.Body)
	}
}

// The fault-masked scheme serves through the same handler stack: the
// faults config reaches the engine (echoed back with a fault report,
// slower run), a zero-density run reproduces the lockstep multi times
// bit-identically, distinct densities never alias in the cache, and a
// density outside [0, 1) is a 400 with a typed param error before any
// execution — as is a density handed to a fault-free scheme.
func TestRunFaultyScheme(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	lock := decodeRun(t, postRun(t, h, validRun))
	base := postRun(t, h, `{"scheme": "multi-faulty", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16}`)
	if base.Code != http.StatusOK {
		t.Fatalf("faults default: status = %d; body: %s", base.Code, base.Body)
	}
	rb := decodeRun(t, base)
	if rb.Time != lock.Time || rb.PrepTime != lock.PrepTime {
		t.Errorf("zero-fault multi-faulty (%v, %v) != multi (%v, %v)", rb.Time, rb.PrepTime, lock.Time, lock.PrepTime)
	}
	if rb.FaultReport == nil || rb.FaultReport.DeadProcs != 0 || rb.FaultReport.EffectiveP != 4 {
		t.Errorf("zero-fault report = %+v, want all-alive identity", rb.FaultReport)
	}
	faulty := postRun(t, h, `{"scheme": "multi-faulty", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"faults": 0.25, "fault_seed": 3}}`)
	if faulty.Code != http.StatusOK {
		t.Fatalf("faults=0.25: status = %d; body: %s", faulty.Code, faulty.Body)
	}
	rf := decodeRun(t, faulty)
	if rf.Faults != 0.25 {
		t.Errorf("faults echo = %v, want 0.25", rf.Faults)
	}
	if rf.Cached {
		t.Error("faults=0.25 run hit the cache of the zero-fault run")
	}
	if rf.Time <= rb.Time {
		t.Errorf("faults=0.25 Time %v not above fault-free %v", rf.Time, rb.Time)
	}
	if rf.FaultReport == nil || (rf.FaultReport.DeadProcs == 0 && rf.FaultReport.DeadCells == 0) {
		t.Errorf("faults=0.25 report = %+v, want sampled faults", rf.FaultReport)
	}
	bad := postRun(t, h, `{"scheme": "multi-faulty", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"faults": 1.5}}`)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("faults=1.5: status = %d, want 400; body: %s", bad.Code, bad.Body)
	}
	if eb := decodeError(t, bad); eb.Error.Param == nil || eb.Error.Param.Field != "faults" {
		t.Errorf("faults=1.5 error = %+v, want param error on faults", eb)
	}
	lockBad := postRun(t, h, `{"scheme": "multi", "d": 1, "n": 64, "p": 4, "m": 4, "steps": 16, "config": {"faults": 0.1}}`)
	if lockBad.Code != http.StatusBadRequest {
		t.Fatalf("multi with faults: status = %d, want 400; body: %s", lockBad.Code, lockBad.Body)
	}
}

// Chaos satellite: a fault-masked run cancelled mid-flight upholds the
// cancellation contract — the simulation stops at its next checkpoint,
// runs_cancelled counts it, the inflight gauge drains to zero, and the
// pool slot is released for the next request.
func TestRunFaultyCancelMidRun(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A heavy fault-masked run: the d = 2 span calibrations plus the
	// 4096-node replay keep it in flight long enough to cancel.
	body := `{"scheme": "multi-faulty", "d": 2, "n": 4096, "p": 4, "m": 4, "steps": 256, "config": {"faults": 0.25, "fault_seed": 7}}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the run is actually in flight, then disconnect.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var inflight int
		fmt.Sscanf(metricsInt(t, srv.URL, "inflight_runs"), "%d", &inflight)
		if inflight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fault-masked run never showed up in inflight_runs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	for {
		var cancelled, inflight int
		fmt.Sscanf(metricsInt(t, srv.URL, "runs_cancelled"), "%d", &cancelled)
		fmt.Sscanf(metricsInt(t, srv.URL, "inflight_runs"), "%d", &inflight)
		if cancelled >= 1 && inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation not reflected: runs_cancelled=%d inflight_runs=%d", cancelled, inflight)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The single worker slot must be free again: a fresh run completes.
	w := postRun(t, s.Handler(), validRun)
	if w.Code != http.StatusOK {
		t.Fatalf("run after cancelled fault run: status %d, body %s", w.Code, w.Body)
	}
	if got := s.pool.QueueDepth(); got != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", got)
	}
}

// The analytic scheme serves through the same handler stack: no guest
// outputs exist, but the response only carries times and ledger, so a
// blocked-analytic run is a regular 200.
func TestRunAnalyticScheme(t *testing.T) {
	s := New(Config{})
	w := postRun(t, s.Handler(), `{"scheme": "blocked-analytic", "d": 1, "n": 1024, "p": 1, "m": 8, "steps": 64}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d; body: %s", w.Code, w.Body)
	}
	resp := decodeRun(t, w)
	if resp.Time <= 0 {
		t.Errorf("analytic run Time = %v, want > 0", resp.Time)
	}
	if resp.Ledger["compute"] != float64(1024*65) {
		t.Errorf("analytic compute ledger = %v, want %d", resp.Ledger["compute"], 1024*65)
	}
}

// MemoCapacity wires through to the process-wide store: negative
// disables, positive rebinds.
func TestConfigMemoCapacity(t *testing.T) {
	defer bsmp.SetMemoCapacity(bsmp.MemoCapacity())
	New(Config{MemoCapacity: -1})
	if c := bsmp.MemoCapacity(); c > 0 {
		t.Errorf("MemoCapacity(-1) left capacity %d, want disabled", c)
	}
	New(Config{MemoCapacity: 99})
	if c := bsmp.MemoCapacity(); c != 99 {
		t.Errorf("MemoCapacity(99) set capacity %d", c)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}

	postRun(t, s.Handler(), validRun)
	postRun(t, s.Handler(), validRun) // cache hit

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var metrics struct {
		Bsmp map[string]json.RawMessage `json:"bsmp"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics not JSON: %v\nbody: %s", err, w.Body)
	}
	if !bytes.Equal(metrics.Bsmp["cache_hits"], []byte("1")) {
		t.Fatalf("cache_hits = %s, want 1; metrics: %s", metrics.Bsmp["cache_hits"], w.Body)
	}
	if !bytes.Equal(metrics.Bsmp["runs"], []byte("1")) {
		t.Fatalf("runs = %s, want 1", metrics.Bsmp["runs"])
	}
}
