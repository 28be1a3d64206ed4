// Command bsmptop is a terminal dashboard over a running bsmpd: it
// polls GET /v1/runs (the run registry) and GET /metrics.prom (the
// Prometheus surface) and renders a top-style view — serving counters,
// latency quantiles, flight-recorder occupancy, and a run table with
// live progress bars for in-flight simulations (vertex counters against
// the n*steps guest size).
//
// Usage:
//
//	go run ./cmd/bsmptop [-addr http://localhost:8080] [-interval 2s] [-n 20] [-once]
//
// -once renders a single frame and exits (scriptable; no screen
// clearing), which is also how the smoke suite exercises it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"bsmp/internal/obs"
	"bsmp/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "bsmpd base URL")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	rows := flag.Int("n", 20, "run-table rows to display")
	once := flag.Bool("once", false, "render one frame and exit")
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	for {
		frame, err := buildFrame(client, strings.TrimRight(*addr, "/"), *rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsmptop: %v\n", err)
			if *once {
				os.Exit(1)
			}
		} else {
			if !*once {
				fmt.Print("\x1b[H\x1b[2J") // home + clear
			}
			os.Stdout.WriteString(frame)
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// buildFrame fetches both surfaces and renders one dashboard frame.
func buildFrame(client *http.Client, base string, rows int) (string, error) {
	var runs serve.RunsResponse
	if err := fetchJSON(client, base+"/v1/runs?limit="+strconv.Itoa(rows), &runs); err != nil {
		return "", fmt.Errorf("fetching /v1/runs: %w", err)
	}
	resp, err := client.Get(base + "/metrics.prom")
	if err != nil {
		return "", fmt.Errorf("fetching /metrics.prom: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("reading /metrics.prom: %w", err)
	}
	prom := parseProm(string(body))
	var sb strings.Builder
	renderDashboard(&sb, base, runs, prom, rows)
	return sb.String(), nil
}

func fetchJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// parseProm reads Prometheus text exposition into a flat map keyed by
// the full series name including its label set (e.g.
// `bsmpd_runs_active{state="running",scheme="multi"}`). Comment and
// blank lines are skipped; unparsable values are dropped.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything after the last space; the series name
		// (which may itself contain spaces inside label values) is the rest.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// promByLabel sums every series of one metric name by the value of one
// of its labels (e.g. bsmpd_runs_total by state).
func promByLabel(prom map[string]float64, name, label string) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range prom {
		rest, ok := strings.CutPrefix(k, name+"{")
		if !ok {
			continue
		}
		if _, val, ok := strings.Cut(rest, label+`="`); ok {
			val, _, _ = strings.Cut(val, `"`)
			out[val] += v
		}
	}
	return out
}

// progressBar renders `[#####.....]  50%` for done of total cells. An
// unknown total (<= 0) renders an indeterminate bar.
func progressBar(done, total int64, width int) string {
	if width < 1 {
		width = 1
	}
	if total <= 0 {
		return "[" + strings.Repeat("~", width) + "]   ?%"
	}
	frac := float64(done) / float64(total)
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	filled := int(frac*float64(width) + 0.5)
	return fmt.Sprintf("[%s%s] %3.0f%%",
		strings.Repeat("#", filled), strings.Repeat(".", width-filled), frac*100)
}

// runTarget extracts the guest size n*steps from a record's canonical
// params (an any that decodes as a JSON object client-side), the
// denominator for its progress bar. Returns 0 when unavailable.
func runTarget(params any) int64 {
	obj, ok := params.(map[string]any)
	if !ok {
		return 0
	}
	num := func(key string) int64 {
		switch v := obj[key].(type) {
		case float64:
			return int64(v)
		case json.Number:
			n, _ := v.Int64()
			return n
		}
		return 0
	}
	return num("n") * num("steps")
}

// renderDashboard writes one frame: header, counter strip, latency
// quantiles per scheme, registry occupancy, then the run table. Run
// counts come from the registry's bsmpd_runs_total; the rest of the
// strip from the counter table.
func renderDashboard(w io.Writer, base string, runs serve.RunsResponse, prom map[string]float64, rows int) {
	fmt.Fprintf(w, "bsmptop — %s — %d run(s) in registry\n\n", base, runs.Total)

	states := promByLabel(prom, "bsmpd_runs_total", "state")
	fmt.Fprintf(w, "serving   runs %.0f  cache %.0f/%.0f hit/miss  coalesced %.0f  shed %.0f  sweeps %.0f  streams %.0f\n",
		states[obs.RunDone],
		prom["bsmpd_cache_hits"], prom["bsmpd_cache_misses"],
		prom["bsmpd_coalesced"], states[obs.RunShed],
		prom["bsmpd_sweeps"], prom["bsmpd_run_events_streams"])
	schemes := promByLabel(prom, "bsmpd_run_latency_seconds_count", "scheme")
	names := make([]string, 0, len(schemes))
	for sc := range schemes {
		names = append(names, sc)
	}
	sort.Strings(names)
	for _, sc := range names {
		quantile := func(q string) float64 {
			return prom[fmt.Sprintf("bsmpd_run_latency_seconds_quantile{scheme=%q,q=%q}", sc, q)]
		}
		fmt.Fprintf(w, "latency   %-12s p50 %.4fs  p95 %.4fs  p99 %.4fs\n", sc, quantile("0.5"), quantile("0.95"), quantile("0.99"))
	}
	fmt.Fprintf(w, "registry  live %.0f  retained %.0f  completed done %.0f / cancelled %.0f / failed %.0f / shed %.0f\n",
		prom["bsmpd_registry_live_runs"], prom["bsmpd_registry_retained_runs"],
		states[obs.RunDone], states[obs.RunCancelled], states[obs.RunFailed], states[obs.RunShed])

	active := activeSeries(prom)
	if len(active) > 0 {
		fmt.Fprintf(w, "active    %s\n", strings.Join(active, "  "))
	}

	fmt.Fprintf(w, "\n%-20s %-6s %-8s %-10s %10s %9s  %s\n",
		"ID", "SRC", "SCHEME", "STATE", "VERTICES", "WALL", "PROGRESS")
	n := len(runs.Runs)
	if n > rows {
		n = rows
	}
	for _, info := range runs.Runs[:n] {
		fmt.Fprintln(w, runRow(info))
	}
}

// activeSeries collects the bsmpd_runs_active gauge's non-zero label
// sets as "state/scheme=count" strings, sorted for stable output.
func activeSeries(prom map[string]float64) []string {
	var out []string
	for k, v := range prom {
		if !strings.HasPrefix(k, "bsmpd_runs_active{") || v == 0 {
			continue
		}
		labels := strings.TrimSuffix(strings.TrimPrefix(k, "bsmpd_runs_active{"), "}")
		labels = strings.ReplaceAll(labels, `"`, "")
		labels = strings.ReplaceAll(labels, "state=", "")
		labels = strings.ReplaceAll(labels, "scheme=", "")
		labels = strings.ReplaceAll(labels, ",", "/")
		out = append(out, fmt.Sprintf("%s=%.0f", labels, v))
	}
	sort.Strings(out)
	return out
}

// runRow renders one run-table line. Terminal runs show a full (or
// failed) bar; live runs show vertex progress against n*steps.
func runRow(info obs.RunInfo) string {
	bar := ""
	switch info.State {
	case obs.RunDone:
		bar = progressBar(1, 1, 20)
	case obs.RunQueued:
		bar = "queued"
	case obs.RunCancelled, obs.RunFailed, obs.RunShed:
		bar = info.State
		if info.Error != "" {
			bar += ": " + truncate(info.Error, 40)
		}
	default: // running
		bar = progressBar(info.Vertices, runTarget(info.Params), 20)
	}
	return fmt.Sprintf("%-20s %-6s %-8s %-10s %10d %8.1fms  %s",
		truncate(info.ID, 20), info.Source, truncate(info.Scheme, 8), info.State,
		info.Vertices, info.WallMS, bar)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}
