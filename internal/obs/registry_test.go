package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(8)
	var verts atomic.Int64
	h := r.Begin("run-1", "run", "multi", 1024, map[string]int{"n": 64})
	h.SetSamplers(func() (int64, int64) { return verts.Load(), 2 }, func() string { return "phase:regime1" })

	if got := h.Snapshot(false); got.State != RunQueued || got.ID != "run-1" {
		t.Fatalf("queued snapshot = %+v", got)
	}
	if h.Terminal() {
		t.Fatal("queued handle reports terminal")
	}
	h.Running()
	verts.Store(100)
	snap := h.Snapshot(false)
	if snap.State != RunRunning || snap.Vertices != 100 || snap.Span != "phase:regime1" {
		t.Fatalf("running snapshot = %+v", snap)
	}
	if live, completed := r.Len(); live != 1 || completed != 0 {
		t.Fatalf("Len = (%d, %d), want (1, 0)", live, completed)
	}
	ac := r.ActiveCounts()
	if len(ac) != 1 || ac[0] != (ActiveCount{State: RunRunning, Scheme: "multi", Count: 1}) {
		t.Fatalf("ActiveCounts = %+v", ac)
	}

	h.Finish(RunDone, func(info *RunInfo) {
		info.Time = 42
		info.PhaseTimes = []PhaseSummary{{Name: "regime1", VTime: 42, WallMS: 3}}
	})
	select {
	case <-h.Done():
	default:
		t.Fatal("Done not closed after Finish")
	}
	fin := h.Snapshot(true)
	if fin.State != RunDone || fin.Time != 42 || fin.Vertices != 100 || fin.Span != "" {
		t.Fatalf("terminal snapshot = %+v", fin)
	}
	if live, completed := r.Len(); live != 0 || completed != 1 {
		t.Fatalf("Len after finish = (%d, %d), want (0, 1)", live, completed)
	}
	if got := r.Get("run-1"); got != h {
		t.Fatal("Get lost the retired record")
	}
	if cc := r.CompletedCounts(); cc[RunDone] != 1 {
		t.Fatalf("CompletedCounts = %+v", cc)
	}
	hists := r.Hists()
	if s, ok := hists.Phases["regime1"]; !ok || s.Count != 1 {
		t.Fatalf("phase histogram missing regime1: %+v", hists.Phases)
	}
	if s := hists.Latency["multi"]; s.Count != 1 || hists.Size.Count != 1 || hists.Size.Sum != 1024 || hists.QueueWait.Count != 1 {
		t.Fatalf("run histograms after one done run = %+v", hists)
	}
	if rc := r.RunCounts(); len(rc) != 1 || rc[0] != (RunCount{Source: "run", Scheme: "multi", State: RunDone, Count: 1}) {
		t.Fatalf("RunCounts = %+v", rc)
	}

	// Finish is idempotent: a second call must not double-count or
	// re-close Done.
	h.Finish(RunFailed, nil)
	if cc := r.CompletedCounts(); cc[RunDone] != 1 || cc[RunFailed] != 0 {
		t.Fatalf("double Finish changed counters: %+v", cc)
	}
}

func TestRegistryEvictionOrder(t *testing.T) {
	r := NewRegistry(4)
	// An in-flight run admitted first must survive arbitrarily many
	// completions: only the ring evicts, and only completed records live
	// there.
	inflight := r.Begin("live-0", "run", "multi", 0, nil)
	inflight.Running()

	for i := 1; i <= 10; i++ {
		h := r.Begin(fmt.Sprintf("run-%d", i), "run", "multi", 0, nil)
		h.Running()
		h.Finish(RunDone, nil)
	}

	if got := r.Get("live-0"); got != inflight {
		t.Fatal("in-flight run evicted by completed churn")
	}
	// Oldest-completed-first eviction: with capacity 4 and completions
	// 1..10 in order, exactly 7..10 remain.
	for i := 1; i <= 6; i++ {
		if r.Get(fmt.Sprintf("run-%d", i)) != nil {
			t.Errorf("run-%d still retained, want evicted", i)
		}
	}
	for i := 7; i <= 10; i++ {
		if r.Get(fmt.Sprintf("run-%d", i)) == nil {
			t.Errorf("run-%d evicted, want retained", i)
		}
	}

	// List: live first (newest admission first), then completed in
	// reverse completion order.
	list := r.List()
	wantIDs := []string{"live-0", "run-10", "run-9", "run-8", "run-7"}
	if len(list) != len(wantIDs) {
		t.Fatalf("List has %d entries, want %d", len(list), len(wantIDs))
	}
	for i, want := range wantIDs {
		if got := list[i].ID(); got != want {
			t.Errorf("List[%d] = %q, want %q", i, got, want)
		}
	}
}

func TestRegistryTerminalStateClassification(t *testing.T) {
	r := NewRegistry(8)
	for i, tc := range []struct {
		state string
		want  string
	}{
		{RunDone, RunDone},
		{RunCancelled, RunCancelled},
		{RunShed, RunShed},
		{RunFailed, RunFailed},
		{RunRunning, RunFailed}, // non-terminal states coerce to failed
	} {
		h := r.Begin(fmt.Sprintf("r%d", i), "run", "multi", 0, nil)
		h.Finish(tc.state, nil)
		if got := h.Snapshot(false).State; got != tc.want {
			t.Errorf("Finish(%q) => state %q, want %q", tc.state, got, tc.want)
		}
	}
	cc := r.CompletedCounts()
	if cc[RunDone] != 1 || cc[RunCancelled] != 1 || cc[RunShed] != 1 || cc[RunFailed] != 2 {
		t.Fatalf("CompletedCounts = %+v", cc)
	}
	// A run shed before execution reports only queue latency.
	shed := r.Get("r2").Snapshot(false)
	if shed.WallMS != 0 || shed.QueueMS < 0 {
		t.Errorf("shed record timing = %+v", shed)
	}
}

// TestRegistryNilSafe pins the one nil handle a caller can hold: Get
// on an ID the ring no longer retains returns nil, and crediting a
// cache hit to it does nothing.
func TestRegistryNilSafe(t *testing.T) {
	r := NewRegistry(1)
	for _, id := range []string{"old", "new"} {
		h := r.Begin(id, "run", "multi", 0, nil)
		h.Running()
		h.Finish(RunDone, nil)
	}
	h := r.Get("old")
	if h != nil {
		t.Fatal("evicted record still retained")
	}
	h.AddCacheHit()
	if r.Get("") != nil || r.Get("new") == nil {
		t.Fatal("Get of the empty or the retained ID")
	}
}

// TestRegistryCountsTransitions pins what a terminal transition counts:
// each run by (source, scheme, state); the latency and size histograms
// only for done runs, latency by scheme; the queue wait of every run but
// a shed one.
func TestRegistryCountsTransitions(t *testing.T) {
	r := NewRegistry(8)
	for i, tc := range []struct {
		source, scheme, state string
		ran                   bool
	}{
		{"run", "multi", RunDone, true},
		{"run", "multi-theta", RunDone, true},
		{"sweep", "multi", RunDone, true},
		{"run", "multi", RunCancelled, true},
		{"run", "multi", RunCancelled, false},
		{"run", "multi", RunShed, false},
		{"run", "naive", RunFailed, true},
	} {
		h := r.Begin(fmt.Sprintf("r%d", i), tc.source, tc.scheme, 100, nil)
		if tc.ran {
			h.Running()
		}
		h.Finish(tc.state, nil)
	}
	want := []RunCount{
		{"run", "multi", RunCancelled, 2},
		{"run", "multi", RunDone, 1},
		{"run", "multi", RunShed, 1},
		{"run", "multi-theta", RunDone, 1},
		{"run", "naive", RunFailed, 1},
		{"sweep", "multi", RunDone, 1},
	}
	if got := r.RunCounts(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RunCounts = %+v, want %+v", got, want)
	}
	if cc := r.CompletedCounts(); cc[RunDone] != 3 || cc[RunCancelled] != 2 || cc[RunShed] != 1 || cc[RunFailed] != 1 {
		t.Fatalf("CompletedCounts = %+v", cc)
	}
	h := r.Hists()
	if len(h.Latency) != 2 || h.Latency["multi"].Count != 2 || h.Latency["multi-theta"].Count != 1 {
		t.Fatalf("latency by scheme = %+v", h.Latency)
	}
	if h.Size.Count != 3 || h.Size.Sum != 300 {
		t.Fatalf("size histogram = %+v", h.Size)
	}
	if h.QueueWait.Count != 6 {
		t.Fatalf("queue-wait observations = %d, want 6 (every run but the shed one)", h.QueueWait.Count)
	}
}

// TestRegistryChurn hammers the registry from concurrent producers
// (start/finish against a tiny ring, forcing constant eviction) and
// consumers (listings, gauge aggregation, snapshots, point lookups).
// Run under -race this flushes ordering bugs between the handle lock,
// the registry lock, and the lock-free ring.
func TestRegistryChurn(t *testing.T) {
	r := NewRegistry(4)
	const producers = 4
	const runsEach = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var v atomic.Int64
			for i := 0; i < runsEach; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				h := r.Begin(id, "run", "multi", 0, nil)
				h.SetSamplers(func() (int64, int64) { return v.Add(1), 0 }, nil)
				h.Running()
				h.AddCacheHit()
				state := RunDone
				if i%3 == 1 {
					state = RunCancelled
				}
				h.Finish(state, func(info *RunInfo) {
					info.PhaseTimes = []PhaseSummary{{Name: "churn", VTime: 1, WallMS: 0.01}}
				})
				if !h.Terminal() {
					t.Error("finished handle not terminal")
					return
				}
			}
		}(g)
	}

	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range r.List() {
					snap := h.Snapshot(false)
					if snap.ID == "" {
						t.Error("listed handle with empty ID")
						return
					}
					r.Get(snap.ID)
				}
				r.ActiveCounts()
				r.CompletedCounts()
				r.RunCounts()
				r.Hists()
				r.Inflight()
				r.Len()
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	cc := r.CompletedCounts()
	var total uint64
	for _, n := range cc {
		total += n
	}
	if want := uint64(producers * runsEach); total != want {
		t.Fatalf("terminal counter total = %d, want %d", total, want)
	}
	if live, completed := r.Len(); live != 0 || completed != 4 {
		t.Fatalf("Len after churn = (%d, %d), want (0, 4)", live, completed)
	}
	if s := r.Hists().Phases["churn"]; s.Count != int64(producers*runsEach) {
		t.Fatalf("phase histogram count = %d", s.Count)
	}
}

// TestRegistrySubscriberAtTerminal exercises the watcher pattern the SSE
// endpoint uses: block on Done, then snapshot — joining after the
// terminal transition must not hang.
func TestRegistrySubscriberAtTerminal(t *testing.T) {
	r := NewRegistry(8)
	h := r.Begin("w", "run", "multi", 0, nil)
	go func() {
		h.Running()
		h.Finish(RunDone, nil)
	}()
	select {
	case <-h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done never closed")
	}
	if s := h.Snapshot(false); s.State != RunDone {
		t.Fatalf("state after Done = %q", s.State)
	}
	// A second subscriber joining strictly after the terminal state sees
	// the closed channel immediately.
	select {
	case <-r.Get("w").Done():
	default:
		t.Fatal("late subscriber blocked on Done")
	}
}
