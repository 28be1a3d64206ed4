package main

import (
	"errors"
	"strings"
	"testing"
)

var (
	p50  = metricSpec{Name: "p50_ms", Better: "lower"}
	opsS = metricSpec{Name: "ops_per_s", Better: "higher"}
)

func TestQuartilesOfFive(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	// Between order statistics the quartiles interpolate linearly.
	q1, med, q3 = quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name       string
		spec       metricSpec
		base, head []float64
		losses     int
		regressed  bool
	}{
		{"A/A-like data", p50,
			[]float64{100, 103, 98, 101, 99}, []float64{102, 101, 99, 100, 104}, 3, false},
		{"4 of 5 losses, >10% and beyond the spread", p50,
			[]float64{100, 102, 98, 101, 99}, []float64{115, 117, 97, 116, 114}, 4, true},
		{"3 of 5 losses, however large", p50,
			[]float64{100, 101, 99, 100.5, 99.5}, []float64{130, 131, 129, 90, 95}, 3, false},
		{"4 of 5 losses under 10%", p50,
			[]float64{100, 100.5, 99.5, 100.2, 99.8}, []float64{108, 109, 99, 108.5, 107}, 4, false},
		{"5 of 5 losses inside the spread", p50,
			[]float64{80, 90, 100, 110, 120}, []float64{95, 105, 115, 125, 135}, 5, false},
		{"higher is better: fewer ops regress", opsS,
			[]float64{50, 51, 49, 50.5, 49.5}, []float64{40, 41, 52, 40.5, 39}, 4, true},
		{"higher is better: more ops pass", opsS,
			[]float64{50, 51, 49, 50.5, 49.5}, []float64{60, 61, 59, 60.5, 59.5}, 0, false},
		{"ties count for neither side", p50,
			[]float64{10, 10, 10, 10, 10}, []float64{10, 10, 10, 20, 20}, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := judge(tc.spec, tc.base, tc.head)
			if c.losses != tc.losses || c.regressed != tc.regressed {
				t.Fatalf("losses %d regressed %v, want %d %v (cell %+v)",
					c.losses, c.regressed, tc.losses, tc.regressed, c)
			}
			if c.wins+c.losses > len(tc.base) {
				t.Fatalf("wins %d + losses %d exceed %d pairs", c.wins, c.losses, len(tc.base))
			}
		})
	}
}

func TestJudgeReportsChange(t *testing.T) {
	c := judge(opsS, []float64{50, 50, 50, 50, 50}, []float64{40, 40, 40, 40, 40})
	if c.change != -0.2 || c.wins != 0 || c.losses != 5 || !c.regressed {
		t.Fatalf("cell %+v, want change -0.2, 0 wins, 5 losses, regressed", c)
	}
}

func TestParseRun(t *testing.T) {
	specs := []metricSpec{p50, opsS}
	good := "bsmpbench workload=run-mix seed=1\nfail_ratio 0\n" +
		`{"correct":true,"attempted":9,"failed":0,"metrics":{"p50_ms":{"value":1.5,"unit":"ms"},"ops_per_s":{"value":200,"unit":"1/s"}}}` + "\n"
	vals, err := parseRun([]byte(good), nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	if vals["p50_ms"] != 1.5 || vals["ops_per_s"] != 200 {
		t.Fatalf("vals = %v", vals)
	}

	for _, tc := range []struct {
		name, stdout string
		runErr       error
		want         string
	}{
		{"non-zero exit", good, errors.New("exit status 1"), "exit status 1"},
		{"incorrect ops", `{"correct":false,"metrics":{"p50_ms":{"value":1},"ops_per_s":{"value":2}}}`, nil, `"correct": false`},
		{"missing metric", `{"correct":true,"metrics":{"p50_ms":{"value":1}}}`, nil, "lacks metric ops_per_s"},
		{"no report", "bsmpbench: set-up: boom\n", nil, "not a report"},
		{"empty output", "", nil, "not a report"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseRun([]byte(tc.stdout), tc.runErr, specs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestReadManifestReadsRepositoryBenchmark(t *testing.T) {
	m, err := readManifest("../..")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range m.Workloads {
		names[w.Name] = true
	}
	if !names["run-mix"] || !names["sweep-heavy"] || !names["battery-quick"] {
		t.Fatalf("workloads %v, want run-mix, sweep-heavy and battery-quick", names)
	}
	better := map[string]string{}
	for _, s := range m.EndToEnd {
		better[s.Name] = s.Better
	}
	if better["p50_ms"] != "lower" || better["ops_per_s"] != "higher" {
		t.Fatalf("end-to-end metrics %v", better)
	}
}
