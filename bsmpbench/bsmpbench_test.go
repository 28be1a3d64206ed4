package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"bsmp/internal/serve"
)

func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n, rank int
		q       float64
	}{
		{1, 0, 0.5},   // too few samples: the median stands in
		{19, 0, 0.5},  // still no percentile above the median has 10 beyond it
		{20, 10, 0.5}, // exactly 10 beyond the 10th sample
		{22, 12, 12. / 22},
		{999, 989, 989. / 999},
		{1000, 990, 0.99}, // p99 proper from here on
		{5000, 4950, 0.99},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i) // distinct values, unsorted
		}
		if got := tailRank(c.n); got != c.rank {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.rank)
		}
		v, q := tail(xs)
		if math.Abs(q-c.q) > 1e-12 {
			t.Errorf("n=%d: percentile %v, want %v", c.n, q, c.q)
		}
		if c.rank == 0 {
			if v != median(xs) {
				t.Errorf("n=%d: tail %v, want the median %v", c.n, v, median(xs))
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestUnionSelfTime(t *testing.T) {
	// Children overlap (rows on two workers) and overhang the parent.
	parent := &node{name: "op", start: 0, end: 100}
	parent.add(
		&node{name: "a", start: 10, end: 40},
		&node{name: "b", start: 30, end: 60},  // overlaps a
		&node{name: "c", start: 45, end: 50},  // inside b
		&node{name: "d", start: 80, end: 120}, // runs past the parent
	)
	// Covered: [10,60) and [80,100) = 70, so 30 is the parent's own.
	if got := parent.self(); got != 30 {
		t.Errorf("self = %d, want 30", got)
	}
	if got := unionLen(0, 100, nil); got != 0 {
		t.Errorf("empty union = %d", got)
	}
	if got := unionLen(0, 10, []interval{{20, 30}}); got != 0 {
		t.Errorf("disjoint union = %d", got)
	}
	acc := map[string]float64{}
	root := &node{name: "execute", start: 0, end: 4e6}
	sched := &node{name: "schedule", start: 0, end: 3e6}
	sched.add(&node{name: "phase:regime1", start: 0, end: 1e6}, &node{name: "phase:regime1", start: 5e5, end: 2e6})
	root.add(sched, &node{name: "replay", start: 3e6, end: 4e6})
	selfTimes(root, acc)
	// schedule self 1 ms, phases 1 + 1.5 ms, replay 1 ms.
	if acc["simulate.schedule_ms.lockstep"] != 3.5 || acc["network.replay_ms"] != 1 {
		t.Errorf("self times %v", acc)
	}
}

func TestStreamDeterminism(t *testing.T) {
	u1, u2 := buildUniverse(42), buildUniverse(42)
	take := func(s *stream, n int) [][]byte {
		var out [][]byte
		for i := 0; i < n; i++ {
			o := s.next()
			out = append(out, []byte(fmt.Sprintf("%s %s %s %s", o.class, o.method, o.path, o.body)))
		}
		return out
	}
	const n = 3000
	a, b := take(newStream(u1, 42, 0), n), take(newStream(u2, 42, 0), n)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("op %d differs for the same seed: %s vs %s", i, a[i], b[i])
		}
	}
	if slices.EqualFunc(a, take(newStream(u1, 42, 1), n), bytes.Equal) {
		t.Error("clients 0 and 1 send the same stream")
	}
	if slices.EqualFunc(a, take(newStream(buildUniverse(43), 43, 0), n), bytes.Equal) {
		t.Error("seeds 42 and 43 send the same stream")
	}
	// Every block of 50 ops carries the quota exactly.
	s := newStream(u1, 42, 0)
	for blk := 0; blk < 10; blk++ {
		got := map[string]int{}
		for i := 0; i < 50; i++ {
			got[s.next().class]++
		}
		for _, q := range quota {
			if got[q.class] != q.n {
				t.Fatalf("block %d: %d %s ops, want %d", blk, got[q.class], q.class, q.n)
			}
		}
	}
}

func TestUniverseShape(t *testing.T) {
	u := buildUniverse(7)
	if miss := len(u.tuples) - u.hot; miss < 2*512 {
		t.Errorf("miss pool of %d tuples is not several times the 512-entry LRU", miss)
	}
	seen := map[string]bool{}
	for _, r := range u.tuples[u.hot:] {
		k := describe(r) + fmt.Sprint(r.Config)
		if seen[k] {
			t.Fatalf("miss pool repeats %s", k)
		}
		seen[k] = true
	}
	for k := range mutations {
		req, field := invalidate(u.tuples[u.hot], k)
		if field == "" || req == u.tuples[u.hot] {
			t.Errorf("mutation %d left the tuple valid", k)
		}
	}
}

func TestCheckRejection(t *testing.T) {
	body, _ := json.Marshal(serve.ErrorBody{Error: serve.ErrorDetail{Kind: "param", Message: "m"}})
	if err := checkRejection(exchange{status: http.StatusBadRequest, body: body}, "m"); err == nil {
		t.Error("a 400 without a param detail passed")
	}
	good := []byte(`{"error":{"kind":"param","message":"x","param":{"field":"theta"}}}`)
	if err := checkRejection(exchange{status: http.StatusBadRequest, body: good}, "theta"); err != nil {
		t.Errorf("a matching rejection failed: %v", err)
	}
	if err := checkRejection(exchange{status: http.StatusBadRequest, body: good}, "faults"); err == nil {
		t.Error("a rejection naming the wrong field passed")
	}
	if err := checkRejection(exchange{status: http.StatusOK, body: good}, "theta"); err == nil {
		t.Error("a 200 passed as a rejection")
	}
}

func TestSweepRowMismatchFails(t *testing.T) {
	req := serve.RunRequest{Scheme: "multi", D: 1, N: 64, P: 4, M: 4, Steps: 8, Guest: "mixca", Seed: 3}
	ref, err := direct(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec{points: []serve.RunRequest{req}, refs: map[string]outcome{
		pointKey(req.Scheme, req.D, req.N, req.P, req.M, req.Steps, req.Seed, 0, 0): ref,
	}}
	row := func(o outcome) exchange {
		r, _ := json.Marshal(sweepResult{outcome: o, Scheme: req.Scheme, D: req.D, N: req.N, P: req.P, M: req.M, Steps: req.Steps, Seed: req.Seed})
		l1, _ := json.Marshal(sweepLine{Index: 0, Result: r})
		l2, _ := json.Marshal(sweepLine{Done: true, Points: 1, Rows: 1})
		return exchange{status: http.StatusOK, body: append(append(l1, '\n'), l2...)}
	}
	if _, err := checkSweep(spec, row(ref), false); err != nil {
		t.Fatalf("the reference row failed: %v", err)
	}
	bad := ref
	bad.Time = math.Nextafter(bad.Time, math.Inf(1)) // one ulp off
	if _, err := checkSweep(spec, row(bad), false); err == nil {
		t.Error("a row one ulp off its direct reference passed")
	}
}

// TestCorruptDigestFails runs one real battery pass against a corrupted
// pinned digest: the pass must count as failed.
func TestCorruptDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick battery")
	}
	for _, c := range []struct {
		digest   string
		wantFail bool
	}{{pinnedDigest(), false}, {corrupt(pinnedDigest()), true}} {
		tl := &tally{}
		w := newBattery(1, tl, c.digest)
		ph := testPhase(time.Millisecond)
		if err := w.run(context.Background(), ph); err != nil {
			t.Fatal(err)
		}
		if got := tl.failRatio() > 0; got != c.wantFail {
			t.Errorf("digest %.8s…: fail_ratio %v, want failures %t", c.digest, tl.failRatio(), c.wantFail)
		}
	}
}

// TestWrongReferenceFails drives run-mix against a real daemon with
// every direct reference nudged by one ulp: every /v1/run answer must
// then count as a failed op.
func TestWrongReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon and runs the run-mix universe")
	}
	tl := &tally{}
	w := newRunMix(5, tl)
	defer w.close()
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.run(context.Background(), testPhase(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("honest references: %d of %d ops failed: %v", tl.failed, tl.attempted, tl.errs)
	}
	for i := range w.refs {
		w.refs[i].PrepTime = math.Nextafter(w.refs[i].PrepTime, math.Inf(1))
	}
	if err := w.run(context.Background(), testPhase(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if tl.failRatio() == 0 {
		t.Error("answers disagreeing with their direct references did not fail")
	}
}

// corrupt changes the first hex digit of a digest.
func corrupt(d string) string {
	if d[0] == '0' {
		return "1" + d[1:]
	}
	return "0" + d[1:]
}

func testPhase(d time.Duration) *phase {
	return &phase{dur: d, g: &gauge{}, byClass: map[string][]float64{},
		samples: map[string][]float64{}, sums: map[string]float64{}}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric sets and
// BENCHMARK.json's declarations in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", got, perLayer)
	}
}
