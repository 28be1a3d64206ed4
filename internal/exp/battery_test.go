package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"bsmp/internal/simulate"
)

func TestBatteryDispatchIsPermutation(t *testing.T) {
	if len(dispatch) != len(battery) {
		t.Fatalf("dispatch lists %d jobs, battery has %d", len(dispatch), len(battery))
	}
	seen := make([]bool, len(battery))
	for _, i := range dispatch {
		if i < 0 || i >= len(battery) {
			t.Fatalf("dispatch index %d outside the battery", i)
		}
		if seen[i] {
			t.Fatalf("dispatch lists %s twice", battery[i].id)
		}
		seen[i] = true
	}
	if id := battery[dispatch[0]].id; id != "E-BRENT" {
		t.Errorf("first dispatched job is %s, want the critical path E-BRENT", id)
	}
	// After E-BRENT come the experiments that publish memo records, then
	// the memoFree ones, then the figures.
	group := func(j job) int {
		switch {
		case j.id == "E-BRENT":
			return 0
		case j.fig != nil:
			return 3
		case slices.Contains(memoFree, j.id):
			return 2
		}
		return 1
	}
	for k := 1; k < len(dispatch); k++ {
		if a, b := battery[dispatch[k-1]], battery[dispatch[k]]; group(a) > group(b) {
			t.Errorf("%s dispatched before %s", a.id, b.id)
		}
	}
	ids := map[string]bool{}
	for _, j := range battery {
		if ids[j.id] {
			t.Errorf("battery lists %s twice", j.id)
		}
		ids[j.id] = true
	}
	for i, j := range battery {
		if fig := j.fig != nil; fig != (i >= len(experiments)) {
			t.Errorf("%s at battery index %d: figure = %v", j.id, i, fig)
		}
	}
}

// batteryDigest hashes tables exactly as cmd/experiments prints them.
func batteryDigest(tables []*Table) string {
	h := sha256.New()
	for _, tb := range tables {
		h.Write([]byte(tb.Format() + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The parallel and single-worker batteries print the same tables, and
// those tables are the ones the repository benchmark pinned.
func TestBatteryMatchesPinnedDigest(t *testing.T) {
	raw, err := os.ReadFile("../../bsmpbench/battery_quick.digest")
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.TrimSpace(string(raw))
	par, err := AllContext(context.Background(), Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := AllSequentialContext(context.Background(), Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(battery) || len(seq) != len(battery) {
		t.Fatalf("got %d parallel and %d sequential tables, want %d", len(par), len(seq), len(battery))
	}
	for i := range par {
		if par[i].Format() != seq[i].Format() {
			t.Errorf("%s formats differently in the parallel and sequential batteries", par[i].ID)
		}
	}
	if got := batteryDigest(par); got != pinned {
		t.Errorf("quick battery digest %s, pinned %s", got, pinned)
	}
}

// Every job memoFree names is an experiment that, run from an empty memo
// store, leaves it empty: dispatch runs them after the experiments that
// publish.
func TestMemoFreeJobsPublishNothing(t *testing.T) {
	c := simulate.MemoCapacity()
	defer simulate.SetMemoCapacity(c)
	found := 0
	for _, j := range experiments {
		if !slices.Contains(memoFree, j.id) {
			continue
		}
		found++
		simulate.SetMemoCapacity(0)
		simulate.SetMemoCapacity(c)
		before := simulate.MemoStatsSnapshot()
		if _, err := j.run(context.Background(), Scale{Quick: true}); err != nil {
			t.Fatal(err)
		}
		after := simulate.MemoStatsSnapshot()
		if n := int64(after.Entries) + after.Evictions - before.Evictions; n != 0 {
			t.Errorf("%s published %d memo records; memoFree must name only experiments that publish none", j.id, n)
		}
	}
	if found != len(memoFree) {
		t.Errorf("memoFree names %d jobs, %d of them battery experiments", len(memoFree), found)
	}
}

// No battery job resizes the process-wide memo store: a pass on the
// shared pool would otherwise run every job under one job's setting.
func TestBatteryLeavesMemoCapacity(t *testing.T) {
	want := simulate.MemoCapacity()
	var seen atomic.Int64
	seen.Store(int64(want))
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c := simulate.MemoCapacity(); c != want {
				seen.Store(int64(c))
			}
		}
	}()
	_, err := AllContext(context.Background(), Scale{Quick: true})
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != int64(want) {
		t.Errorf("memo capacity changed to %d during the battery, want %d throughout", got, want)
	}
}

// A cancelled pool flushes the experiments that completed, in job order,
// and drops figure tables even when they completed first.
func TestRunPoolPartialFlushDropsFigures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	table := func(id string) (*Table, error) { return &Table{ID: id}, nil }
	figDone := make(chan struct{})
	jobs := []job{
		{id: "A", exp: func(context.Context, Scale) (*Table, error) {
			<-figDone
			cancel()
			return table("A")
		}},
		{id: "B", exp: func(ctx context.Context, _ Scale) (*Table, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{id: "C", exp: func(context.Context, Scale) (*Table, error) { return table("C") }},
		{id: "F", fig: func() (*Table, error) {
			defer close(figDone)
			return table("F")
		}},
	}
	// B holds one worker until the cancel; the other runs F, then A,
	// which completes but cancels the pool, so C never starts.
	tabs, err := runPool(ctx, Scale{}, 2, jobs, []int{1, 3, 0, 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var got []string
	for _, tb := range tabs {
		got = append(got, tb.ID)
	}
	if strings.Join(got, ",") != "A" {
		t.Errorf("partial flush = %v, want [A]", got)
	}
}
