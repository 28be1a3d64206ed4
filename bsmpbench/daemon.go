package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"bsmp"
	"bsmp/internal/cost"
	"bsmp/internal/obs"
	"bsmp/internal/serve"
)

// daemon is one in-process bsmpd: serve.New with the daemon's defaults,
// served on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := serve.New(serve.Config{})
	d := &daemon{
		srv:  s,
		hs:   &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop drains the listener and the daemon's worker pool and returns once
// the serving goroutine has exited.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.done
	return errors.Join(err, d.srv.Shutdown(ctx))
}

// newClient returns an HTTP client holding one keep-alive connection,
// as each of bsmpd's callers does.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// exchange is one timed HTTP round trip, from the first request byte to
// the last response byte.
type exchange struct {
	status     int
	body       []byte
	start, end time.Time
}

func (x exchange) ms() float64 { return float64(x.end.Sub(x.start).Nanoseconds()) / 1e6 }

func roundTrip(hc *http.Client, method, url string, body []byte) (exchange, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return exchange{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	x := exchange{start: time.Now()}
	resp, err := hc.Do(req)
	if err != nil {
		x.end = time.Now()
		return x, err
	}
	x.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.end = time.Now()
	x.status = resp.StatusCode
	return x, err
}

// getJSON fetches url outside any op's timing and decodes the body.
func getJSON(hc *http.Client, url string, v any) error {
	x, err := roundTrip(hc, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if x.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, x.status)
	}
	return json.Unmarshal(x.body, v)
}

// counters reads the daemon's /metrics counters (expvar JSON).
func counters(hc *http.Client, base string) (map[string]float64, error) {
	var raw struct {
		Bsmp map[string]json.RawMessage `json:"bsmp"`
	}
	if err := getJSON(hc, base+"/metrics", &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw.Bsmp {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out, nil
}

// record fetches a run's registry record, span tree included.
func record(hc *http.Client, base, id string) (obs.RunInfo, error) {
	var info obs.RunInfo
	err := getJSON(hc, base+"/v1/runs/"+id, &info)
	return info, err
}

// recordNodes turns a registry record into the queue and execute spans
// of the op that ran it, the record's engine span tree under execute.
func recordNodes(info obs.RunInfo) (queue, execute *node) {
	created := info.Created.UnixNano()
	run := created + int64(info.QueueMS*1e6)
	queue = &node{name: "queue", start: created, end: run}
	execute = &node{name: "execute", start: run, end: run + int64(info.WallMS*1e6)}
	for _, sp := range info.Trace {
		execute.add(fromObs(sp, created))
	}
	return queue, execute
}

// replayVertices sums the guest vertices the "replay" spans of a span
// tree executed (their n·steps attribute).
func replayVertices(spans []*obs.Span) float64 {
	var v float64
	for _, sp := range spans {
		if sp.Name == "replay" {
			v += sp.Attrs["vertices"]
		}
		v += replayVertices(sp.Children)
	}
	return v
}

// outcome is what the served ≡ direct law pins for one run: virtual
// time, preparation time and the per-category ledger, bit for bit.
type outcome struct {
	Time     float64            `json:"time"`
	PrepTime float64            `json:"prep_time"`
	Ledger   map[string]float64 `json:"ledger"`
}

// direct runs req through bsmp.RunSchemeContext, the reference every
// served result must equal.
func direct(ctx context.Context, req serve.RunRequest) (outcome, error) {
	res, err := bsmp.RunSchemeContext(ctx, req.Scheme, req.D, req.N, req.P, req.M, req.Steps,
		guestProgram(req), schemeConfig(req))
	if err != nil {
		return outcome{}, fmt.Errorf("direct %s: %w", describe(req), err)
	}
	led := map[string]float64{}
	for _, c := range cost.Categories() {
		if t := res.Ledger.Total(c); t != 0 {
			led[c.String()] = float64(t)
		}
	}
	return outcome{float64(res.Time), float64(res.PrepTime), led}, nil
}

// match reports how got differs from the reference want, nil when they
// are bit-identical.
func (want outcome) match(got outcome) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Time, want.Time) || !same(got.PrepTime, want.PrepTime) {
		return fmt.Errorf("time/prep_time %v/%v, direct run gives %v/%v", got.Time, got.PrepTime, want.Time, want.PrepTime)
	}
	if len(got.Ledger) != len(want.Ledger) {
		return fmt.Errorf("ledger %v, direct run gives %v", got.Ledger, want.Ledger)
	}
	for k, v := range want.Ledger {
		if g, ok := got.Ledger[k]; !ok || !same(g, v) {
			return fmt.Errorf("ledger %v, direct run gives %v", got.Ledger, want.Ledger)
		}
	}
	return nil
}

// guestProgram builds the guest a request names with the geometry its
// dimension needs, as bsmpd does.
func guestProgram(req serve.RunRequest) bsmp.Program {
	var g interface {
		InitAt(x, y int, mem []bsmp.Word) bsmp.Word
		Address(node, step, memSize int) int
		Step2(node, step int, cell bsmp.Word, prev []bsmp.Word) (bsmp.Word, bsmp.Word)
	}
	if req.Guest == "rule90" {
		g = bsmp.Rule90{Seed: req.Seed}
	} else {
		g = bsmp.MixCA{Seed: req.Seed}
	}
	side := 0
	switch req.D {
	case 2:
		for side*side < req.N {
			side++
		}
		return bsmp.AsNetwork{G: g, Side: side}
	case 3:
		for side*side*side < req.N {
			side++
		}
		return bsmp.AsNetwork{G: g, CubeSide: side}
	}
	return bsmp.AsNetwork{G: g}
}

func schemeConfig(req serve.RunRequest) bsmp.SchemeConfig {
	c := req.Config
	return bsmp.SchemeConfig{Leaf: c.Leaf, Multi: bsmp.MultiOptions{
		StripWidth: c.StripWidth, SpanOverride: c.SpanOverride,
		NoRearrange: c.NoRearrange, NoCooperate: c.NoCooperate,
		Theta: c.Theta, ThetaSeed: c.ThetaSeed, Faults: c.Faults, FaultSeed: c.FaultSeed,
	}}
}

func describe(req serve.RunRequest) string {
	return fmt.Sprintf("%s d=%d n=%d p=%d m=%d steps=%d seed=%d theta=%g faults=%g",
		req.Scheme, req.D, req.N, req.P, req.M, req.Steps, req.Seed, req.Config.Theta, req.Config.Faults)
}
