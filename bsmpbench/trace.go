package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"bsmp/internal/obs"
)

// node is one span of the benchmark's own trace: a call the benchmark
// made into a layer (an HTTP round trip, an experiment function, a
// validation call) or a span the program already exports (a registry
// record's queue and execute intervals and its engine span tree). Times
// are wall-clock nanoseconds since the Unix epoch, so spans read back
// from registry records line up with the benchmark's own.
type node struct {
	name       string
	start, end int64
	kids       []*node
}

func newNode(name string, start, end time.Time) *node {
	return &node{name: name, start: start.UnixNano(), end: end.UnixNano()}
}

func (n *node) add(kids ...*node) *node {
	n.kids = append(n.kids, kids...)
	return n
}

// self is the node's duration minus the part of it its children cover.
func (n *node) self() int64 {
	ivs := make([]interval, len(n.kids))
	for i, k := range n.kids {
		ivs[i] = interval{k.start, k.end}
	}
	return (n.end - n.start) - unionLen(n.start, n.end, ivs)
}

// walk visits n and its descendants depth-first.
func (n *node) walk(visit func(n *node)) {
	visit(n)
	for _, k := range n.kids {
		k.walk(visit)
	}
}

// fromObs converts a span tree the program exported (a registry
// record's trace, an experiment's tracer) into nodes, given the wall
// clock time its StartNS offsets count from. The program names a
// schedule played on the Θ-model event queue like a lockstep one; a
// "scheme:" span with a nonzero theta attribute marks the difference,
// so its schedule spans are renamed "theta/...".
func fromObs(sp *obs.Span, epoch int64) *node {
	return convert(sp, epoch, false)
}

func convert(sp *obs.Span, epoch int64, theta bool) *node {
	if strings.HasPrefix(sp.Name, "scheme:") {
		theta = sp.Attrs["theta"] != 0
	}
	name := sp.Name
	if theta && (name == "schedule" || strings.HasPrefix(name, "phase:")) {
		name = "theta/" + name
	}
	n := &node{name: name, start: epoch + sp.StartNS, end: epoch + sp.StartNS + sp.DurNS}
	for _, c := range sp.Children {
		n.kids = append(n.kids, convert(c, epoch, theta))
	}
	return n
}

// layerOf maps a span name to the per-layer self-time bucket it feeds,
// "" for spans that only structure the tree.
func layerOf(name string) string {
	switch {
	case name == "plan":
		return "simulate.plan_ms"
	case name == "calibrate":
		return "simulate.calibrate_ms"
	case name == "block":
		return "simulate.block_ms"
	case name == "block:replayed":
		return "simulate.block_replayed_ms"
	case name == "schedule" || strings.HasPrefix(name, "phase:"):
		return "simulate.schedule_ms.lockstep"
	case strings.HasPrefix(name, "theta/"):
		return "simulate.schedule_ms.theta"
	case name == "replay":
		return "network.replay_ms"
	}
	return ""
}

// selfTimes adds, per layer bucket, the self time in milliseconds of
// every span under root into acc.
func selfTimes(root *node, acc map[string]float64) {
	root.walk(func(n *node) {
		if l := layerOf(n.name); l != "" {
			acc[l] += float64(n.self()) / 1e6
		}
	})
}

// spanLogCap bounds the spans a run keeps for its span file (about
// 30 MB of JSON); the per-layer metrics are computed from every op as it
// completes, so the cap only trims the file.
const spanLogCap = 200_000

// spanLog keeps traced ops' span trees in memory, up to spanLogCap
// spans, and writes them out once, as Chrome trace_event JSON (the
// format obs.Tracer's WriteChromeTrace produces), when the benchmark
// ends.
type spanLog struct {
	mu      sync.Mutex
	ops     []loggedOp
	kept    int // spans held
	dropped int // trees left out once the cap was reached
}

type loggedOp struct {
	id   string // the op id: the run_id for a served op
	tid  int    // client or worker lane
	root *node
}

func (l *spanLog) add(id string, tid int, root *node) {
	n := 0
	root.walk(func(*node) { n++ })
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.kept+n > spanLogCap {
		l.dropped++
		return
	}
	l.kept += n
	l.ops = append(l.ops, loggedOp{id, tid, root})
}

func (l *spanLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("%d spans in %d trees, %d later trees left out at the %d-span cap", l.kept, len(l.ops), l.dropped, spanLogCap)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every logged span as a complete ("X") event, with
// times in microseconds from the first span. Each event carries its op
// id, its own span number and its parent's, so the tree survives the
// flat format.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t0 int64
	for i, op := range l.ops {
		if i == 0 || op.root.start < t0 {
			t0 = op.root.start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[")
	seq := 0
	var werr error
	for _, op := range l.ops {
		var emit func(n *node, parent int)
		emit = func(n *node, parent int) {
			if seq > 0 {
				fmt.Fprint(w, ",")
			}
			seq++
			id := seq
			ev := chromeEvent{Name: n.name, Ph: "X",
				Ts: float64(n.start-t0) / 1e3, Dur: float64(n.end-n.start) / 1e3,
				Pid: 1, Tid: op.tid, Args: map[string]any{"op": op.id, "span": id, "parent": parent}}
			if err := enc.Encode(ev); err != nil && werr == nil {
				werr = err
			}
			for _, k := range n.kids {
				emit(k, id)
			}
		}
		emit(op.root, 0)
	}
	fmt.Fprintln(w, "]")
	if werr != nil {
		f.Close()
		return werr
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
