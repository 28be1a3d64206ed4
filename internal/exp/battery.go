package exp

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
)

// job is one table of the battery, under the table ID it returns: an
// E-* experiment (exp) or a figure validation (fig).
type job struct {
	id  string
	exp func(context.Context, Scale) (*Table, error)
	fig func() (*Table, error)
}

func (j job) run(ctx context.Context, s Scale) (*Table, error) {
	if j.fig != nil {
		return j.fig()
	}
	return j.exp(ctx, s)
}

// experiments is the E-* battery in publication order.
var experiments = []job{
	{id: "E-P1", exp: P1}, {id: "E-ISA", exp: ISA}, {id: "E-T2", exp: T2},
	{id: "E-T3", exp: T3}, {id: "E-T3b", exp: T3D2}, {id: "E-T4", exp: T4},
	{id: "E-T5", exp: T5}, {id: "E-T1b", exp: T1D2}, {id: "E-D3", exp: D3},
	{id: "E-D3b", exp: D3Multi}, {id: "E-MM", exp: MM}, {id: "E-S*", exp: SStar},
	{id: "E-AB", exp: Ablations}, {id: "E-LEV", exp: Levels}, {id: "E-COOP", exp: Coop},
	{id: "E-PIPE", exp: Pipe}, {id: "E-M'", exp: MPrime}, {id: "E-BRENT", exp: Brent},
	{id: "E-THETA", exp: Theta}, {id: "E-FAULT", exp: Fault}, {id: "E-REG", exp: Registry},
}

// figures is the figure validations F1-F4 and F-D3 in print order.
var figures = []job{
	{id: "F1", fig: F1}, {id: "F2", fig: F2}, {id: "F3", fig: F3},
	{id: "F4", fig: F4}, {id: "F-D3", fig: FD3},
}

// battery is every job of one pass in the order its tables print: the
// experiments, then the figures.
var battery = slices.Concat(experiments, figures)

// dispatch is the order the pool hands battery indices to its workers.
// E-BRENT is the critical path — the longest job at both scales, ~40 %
// of the quick battery's work and ~70 % of the full one's — so it starts
// first; every other job is far shorter and fills the other workers
// around it: the experiments that publish memo records in battery order,
// then the memoFree ones, the short figures last.
//
// The split keeps what a pass leaves in simulate's bounded FIFO memo
// store the same from pass to pass. The store keeps the records
// published last, and E-BRENT alone publishes more than it holds at
// quick scale, most of them in its last rows. With the other publishers
// done while E-BRENT still runs, a pass leaves E-BRENT's last records
// whichever worker finishes last. With E-REG's records published as
// E-BRENT ends, a pass would leave either E-BRENT's records or the
// heavier traces of E-PIPE, E-M' and E-REG, as the race between the
// two workers fell.
var dispatch = dispatchOrder("E-BRENT", memoFree)

// memoFree names the experiments whose engines publish no memo record;
// TestMemoFreeJobsPublishNothing checks the list.
var memoFree = []string{"E-P1", "E-ISA", "E-T2", "E-T5", "E-D3", "E-MM", "E-LEV", "E-COOP"}

// dispatchOrder returns the battery indices: job first, then the other
// experiments not in free, then those in free, then the figures, each
// group in battery order.
func dispatchOrder(first string, free []string) []int {
	var head, publish, rest []int
	for i, j := range battery {
		switch {
		case j.id == first:
			head = append(head, i)
		case j.fig == nil && !slices.Contains(free, j.id):
			publish = append(publish, i)
		default:
			rest = append(rest, i)
		}
	}
	return slices.Concat(head, publish, rest)
}

// AllContext runs the battery — every E-* experiment and figure
// validation — as one job pool on up to GOMAXPROCS workers and returns
// the tables in battery order, identical to the sequential path. Jobs
// are independent: each builds its own guests, graphs and meters, and
// none mutates process-wide settings; the only shared state is the
// simulate package's bounded memo store. A job failure does not stop the
// others; all failures are reported together via errors.Join, in
// battery order, so the error text is deterministic.
//
// On cancellation, workers stop picking up new jobs, in-flight
// experiments abort at their next cooperative checkpoint, and the
// battery flushes partial results: the returned slice holds every
// experiment that completed successfully, in battery order (gaps
// elided), alongside the context's error. Figures belong only to a
// complete, uncancelled battery, so the partial flush is a deterministic
// function of which experiments finished.
func AllContext(ctx context.Context, s Scale) ([]*Table, error) {
	return runPool(ctx, s, runtime.GOMAXPROCS(0), battery, dispatch)
}

// AllSequentialContext runs the same job list on a single worker, kept
// for benchmark comparison (BenchmarkExpAll) and for profiling runs
// where interleaved jobs would muddy the profile. It has the same
// partial-flush contract as AllContext.
func AllSequentialContext(ctx context.Context, s Scale) ([]*Table, error) {
	return runPool(ctx, s, 1, battery, dispatch)
}

// runPool runs jobs on up to workers goroutines, handing them out in
// order (a permutation of the job indices), and returns their tables in
// job order. On cancellation it returns the completed experiment tables
// in job order, gaps elided, and never a figure table.
func runPool(ctx context.Context, s Scale, workers int, jobs []job, order []int) ([]*Table, error) {
	workers = max(1, min(workers, len(jobs)))
	out := make([]*Table, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = jobs[i].run(ctx, s)
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	if ctx.Err() != nil {
		var done []*Table
		for i, t := range out {
			if errs[i] == nil && t != nil && jobs[i].fig == nil {
				done = append(done, t)
			}
		}
		return done, ctx.Err()
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}
