package simulate

import (
	"context"
	"sync"
	"testing"
)

// flushMemo empties the process-wide memo store (capacity 0 evicts
// everything) and restores the default capacity, giving the test a cold
// kernel cache.
func flushMemo() {
	SetMemoCapacity(0)
	SetMemoCapacity(DefaultMemoCapacity)
}

// Concurrent identical multiprocessor runs on a cold cache must coalesce
// their kernel calibrations: the whole fan performs exactly the
// measurement count of one solo run, instead of multiplying it by the
// concurrency. This is what makes a server-side sweep's shared
// calibration claim real — N grid points sharing (d, span, m, program)
// tuples pay for one calibration run each, not N.
func TestKernelCalibrationCoalesced(t *testing.T) {
	run := func() {
		if _, err := MultiContext(context.Background(), 1, 256, 8, 16, 64, netProg(0), MultiOptions{}); err != nil {
			t.Errorf("MultiContext d=1: %v", err)
		}
	}

	flushMemo()
	before := calMeasurements.Load()
	run()
	solo := calMeasurements.Load() - before
	if solo == 0 {
		t.Fatal("solo run performed no calibration measurements — test premise broken")
	}

	flushMemo()
	before = calMeasurements.Load()
	const fan = 8
	var wg sync.WaitGroup
	for i := 0; i < fan; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	if got := calMeasurements.Load() - before; got != solo {
		t.Fatalf("%d concurrent identical runs measured %d kernels, want %d (the solo run's count)", fan, got, solo)
	}
}
