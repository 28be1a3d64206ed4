// Command benchgate is the repository's performance gate. It runs the
// benchmark that BENCHMARK.json declares in two checkouts of the
// repository, a base and a head, and fails when head is slower:
//
//	go run ./scripts/benchgate BASE_DIR HEAD_DIR
//
// The workloads and the end-to-end metrics come from head's
// BENCHMARK.json. For every workload that base's BENCHMARK.json declares
// too it runs pairs of
//
//	bash bsmpbench/run.sh --workload W --seed i --seconds 10 --trace 0
//
// for i = 1..5, one run in each checkout with the same seed; the side
// that runs first alternates from pair to pair. A workload only head
// declares runs in head alone over the same seeds, and so does an
// end-to-end metric only head declares: its rows print "new at head, not
// compared". A run that exits non-zero, reports "correct": false or
// lacks an end-to-end metric its checkout declares fails the gate. A
// (workload, metric) cell both declare regresses only when all three of
// these hold:
//
//   - head is worse in at least 4 of the 5 pairs (ties count for neither);
//   - head's median is worse than base's by more than base's quartile
//     spread;
//   - head's median is worse than base's by more than 10 %.
//
// The pair count alone and the spread alone each fire on runs of one
// binary against itself on a shared host; the three together do not.
// It prints one row per cell and exits 1 on any regression.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

const (
	pairs      = 5    // pairs of runs per workload, seeds 1..pairs
	runSeconds = 10   // timed phase of each run
	minLosses  = 4    // pairs head must lose to regress
	minChange  = 0.10 // relative median change head must exceed to regress
)

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
}

// manifest is the part of BENCHMARK.json the gate reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

func readManifest(dir string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(m.Workloads) == 0 || len(m.EndToEnd) == 0 {
		return m, errors.New("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	for _, s := range m.EndToEnd {
		if s.Better != "lower" && s.Better != "higher" {
			return m, fmt.Errorf("BENCHMARK.json: metric %s has better %q, want lower or higher", s.Name, s.Better)
		}
	}
	return m, nil
}

// plan is what the gate does with one of head's workloads: run it in
// pairs and judge the metrics base declares too (compared), or, when
// base does not declare the workload, run it in head alone (paired
// false). Either way fresh are head's metrics base does not declare,
// checked on head and not compared.
type plan struct {
	workload        string
	paired          bool
	compared, fresh []metricSpec
}

// planGate compares base's manifest with head's, in head's order.
func planGate(base, head manifest) []plan {
	inBase := map[string]bool{}
	for _, w := range base.Workloads {
		inBase[w.Name] = true
	}
	baseMetric := map[string]bool{}
	for _, s := range base.EndToEnd {
		baseMetric[s.Name] = true
	}
	var plans []plan
	for _, w := range head.Workloads {
		p := plan{workload: w.Name, paired: inBase[w.Name]}
		for _, s := range head.EndToEnd {
			if p.paired && baseMetric[s.Name] {
				p.compared = append(p.compared, s)
			} else {
				p.fresh = append(p.fresh, s)
			}
		}
		plans = append(plans, p)
	}
	return plans
}

// parseRun reads one run's end-to-end metrics from its standard output,
// whose last line is the benchmark's JSON report. runErr is the run's
// exit error, if any.
func parseRun(stdout []byte, runErr error, specs []metricSpec) (map[string]float64, error) {
	if runErr != nil {
		return nil, runErr
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var rep struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("last line is not a report: %w", err)
	}
	if !rep.Correct {
		return nil, errors.New(`report says "correct": false`)
	}
	vals := make(map[string]float64, len(specs))
	for _, s := range specs {
		m, ok := rep.Metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("report lacks metric %s", s.Name)
		}
		vals[s.Name] = m.Value
	}
	return vals, nil
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by linear interpolation between order statistics; for
// five values they are the second, third and fourth smallest.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// cell is the verdict on one (workload, metric) pair of samples.
type cell struct {
	baseQ1, baseMed, baseQ3 float64
	headMed                 float64
	change                  float64 // (head median - base median) / base median
	wins, losses            int     // pairs head is better / worse in
	regressed               bool
}

// judge applies the gate's rule to paired samples: base[i] and head[i]
// come from the same seed. Every end-to-end metric is positive.
func judge(spec metricSpec, base, head []float64) cell {
	var c cell
	c.baseQ1, c.baseMed, c.baseQ3 = quartiles(base)
	_, c.headMed, _ = quartiles(head)
	// worse is how much worse head's value is than base's, in the
	// metric's own direction; negative when head is better.
	worse := func(h, b float64) float64 {
		if spec.Better == "higher" {
			return b - h
		}
		return h - b
	}
	for i := range base {
		switch w := worse(head[i], base[i]); {
		case w > 0:
			c.losses++
		case w < 0:
			c.wins++
		}
	}
	c.change = (c.headMed - c.baseMed) / c.baseMed
	gap := worse(c.headMed, c.baseMed)
	c.regressed = c.losses >= minLosses &&
		gap > c.baseQ3-c.baseQ1 &&
		gap > minChange*c.baseMed
	return c
}

// run executes one benchmark run in checkout dir and returns its
// end-to-end metrics.
func run(dir, workload string, seed int, specs []metricSpec) (map[string]float64, error) {
	cmd := exec.Command("bash", "bsmpbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(runSeconds), "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	vals, err := parseRun(stdout.Bytes(), err, specs)
	if err != nil {
		os.Stderr.Write(stdout.Bytes())
	}
	return vals, err
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/benchgate BASE_DIR HEAD_DIR")
		os.Exit(2)
	}
	dirs := map[string]string{"base": os.Args[1], "head": os.Args[2]}
	man := map[string]manifest{}
	for side, dir := range dirs {
		m, err := readManifest(dir)
		if err != nil {
			die("%s: %v", side, err)
		}
		man[side] = m
	}
	start := time.Now()
	runs := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1–q3]\thead median\tchange\thead wins/losses\t\t")
	var regressed []string
	for _, p := range planGate(man["base"], man["head"]) {
		specs := map[string][]metricSpec{"base": p.compared, "head": append(append([]metricSpec(nil), p.compared...), p.fresh...)}
		samples := map[string]map[string][]float64{"base": {}, "head": {}}
		for seed := 1; seed <= pairs; seed++ {
			order := []string{"head"}
			if p.paired {
				order = []string{"base", "head"}
				if seed%2 == 0 {
					order[0], order[1] = order[1], order[0]
				}
			}
			for _, side := range order {
				t0 := time.Now()
				vals, err := run(dirs[side], p.workload, seed, specs[side])
				if err != nil {
					die("%s run of %s, seed %d: %v", side, p.workload, seed, err)
				}
				runs++
				fmt.Fprintf(os.Stderr, "benchgate: %s seed %d %s %.1f s\n", p.workload, seed, side, time.Since(t0).Seconds())
				for name, v := range vals {
					samples[side][name] = append(samples[side][name], v)
				}
			}
		}
		for _, s := range p.compared {
			c := judge(s, samples["base"][s.Name], samples["head"][s.Name])
			mark := ""
			if c.regressed {
				mark = "REGRESSION"
				regressed = append(regressed, p.workload+" "+s.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g–%.4g]\t%.4g\t%+.1f%%\t%d/%d\t%s\t\n",
				p.workload, s.Name, c.baseMed, c.baseQ1, c.baseQ3, c.headMed, 100*c.change, c.wins, c.losses, mark)
		}
		for _, s := range p.fresh {
			_, med, _ := quartiles(samples["head"][s.Name])
			fmt.Fprintf(tw, "%s\t%s\tnew at head, not compared\t%.4g\t\t\t\t\n", p.workload, s.Name, med)
		}
	}
	tw.Flush()
	fmt.Printf("benchgate: %d runs in %.0f s\n", runs, time.Since(start).Seconds())
	if len(regressed) > 0 {
		die("head regresses on %s", strings.Join(regressed, ", "))
	}
	fmt.Println("benchgate: OK")
}
