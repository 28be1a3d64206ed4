package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// nominalGaugeMS is what one gauge reading takes on the reference host
// (2 vCPUs of an Intel Xeon, Go 1.24) when co-tenants leave it quiet.
// Time metrics are reported at this host speed.
const nominalGaugeMS = 6.5

// gauge reads how fast the host runs right now. The machines this
// benchmark runs on are shared: co-tenants slow both vCPUs by 20 % and
// more for tens of seconds at a time, which no amount of in-run
// repetition averages out. So every run interleaves, between its ops, a
// fixed loop of benchmark-own code — no bsmp code, one goroutine per P,
// the same mix of random memory writes, hashing and allocation the
// workloads' ops are made of — and scales its time metrics by
// nominalGaugeMS over the mean reading. A change to the program cannot
// move the gauge; a slower host moves the gauge and the ops alike.
type gauge struct {
	readings []float64     // ms
	spent    time.Duration // wall time spent reading, left out of ops_per_s
	spentCPU time.Duration // process CPU time spent reading, left out of the CPU per op
	sink     atomic.Uint64
}

// loop runs the fixed work on every P: random read-modify-writes over a
// fresh 256 KiB buffer and inserts into a fresh map.
func (g *gauge) loop() {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]uint64, 1<<15)
			m := make(map[uint64]uint64, 1024)
			x := uint64(i + 1)
			for r := 0; r < 40; r++ {
				for range buf {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					buf[(x>>3)%uint64(len(buf))] += x
				}
				for k := uint64(0); k < 2000; k++ {
					m[x+k] = k
				}
				clear(m)
			}
			g.sink.Add(buf[0])
		}(i)
	}
	wg.Wait()
}

// readingsPerOp is how many readings the long-op workloads take between
// two ops; more readings average the host's bursts better.
const readingsPerOp = 3

// readN takes n readings in a row.
func (g *gauge) readN(n int) {
	for i := 0; i < n; i++ {
		g.read()
	}
}

// read takes one reading. Callers take it between ops, outside every
// op's timing.
func (g *gauge) read() {
	c0, t0 := cpuTime(), time.Now()
	g.loop()
	d := time.Since(t0)
	g.spent += d
	g.spentCPU += cpuTime() - c0
	g.readings = append(g.readings, float64(d.Nanoseconds())/1e6)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// factor converts this run's measured times to the nominal host speed.
// The mean, not the median, follows the share of time co-tenants take,
// however bursty.
func (g *gauge) factor() float64 { return nominalGaugeMS / g.mean() }

func (g *gauge) mean() float64 { return sum(g.readings) / float64(len(g.readings)) }

func (g *gauge) String() string {
	return fmt.Sprintf("host gauge mean %.4f ms over %d readings (nominal %.1f ms): times scaled by %.4f",
		g.mean(), len(g.readings), nominalGaugeMS, g.factor())
}
