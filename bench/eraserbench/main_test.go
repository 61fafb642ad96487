package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the smoke test's child processes run benchmark phases: the
// harness re-executes the test binary with childEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

const benchPath = "../../BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at about 1% of its full size with the
// traced pass on, and checks the report against BENCHMARK.json: every
// listed metric is emitted for every workload with its unit, both trace
// gates pass, no op fails, and the report compares clean against itself.
func TestSmoke(t *testing.T) {
	bench, err := loadBenchmark(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var stdout bytes.Buffer
	code := run([]string{"-seconds", "0.1", "-trace", "1", "-benchmark", benchPath, "-out", out}, &stdout)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*workloadReport{}
	for _, wr := range rep.Workloads {
		byName[wr.Name] = wr
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bench.Workloads), len(workloads))
	}
	for _, bw := range bench.Workloads {
		wr := byName[bw.Name]
		if wr == nil {
			t.Errorf("workload %s not run", bw.Name)
			continue
		}
		if !wr.Correct || wr.OpsFailed != 0 || wr.OpsTotal == 0 {
			t.Errorf("%s: correct=%v ops %d failed %d", wr.Name, wr.Correct, wr.OpsTotal, wr.OpsFailed)
		}
		for _, set := range []struct {
			defs []benchMetric
			got  map[string]Metric
		}{{bench.EndToEnd, wr.Metrics}, {bench.PerLayer, wr.Layers}} {
			for _, d := range set.defs {
				m, ok := set.got[d.Name]
				switch {
				case !metricName.MatchString(d.Name):
					t.Errorf("metric name %q", d.Name)
				case !ok:
					t.Errorf("%s: metric %s not emitted", wr.Name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", wr.Name, d.Name, m.Unit, d.Unit)
				case !(m.Value > 0) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", wr.Name, d.Name, m.Value)
				}
			}
		}
		if len(wr.Gates) != 2 {
			t.Errorf("%s: %d trace gates, want 2", wr.Name, len(wr.Gates))
		}
		for _, g := range wr.Gates {
			if !g.OK {
				t.Errorf("%s: gate %s failed: %s", wr.Name, g.Name, g.Detail)
			}
		}
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var l line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !l.Correct || l.Failed != 0 || len(l.Metrics) != len(bench.PerLayer)*len(rep.Workloads) {
		t.Errorf("result line: correct=%v failed=%d, %d metrics", l.Correct, l.Failed, len(l.Metrics))
	}

	var cmp bytes.Buffer
	worse, err := compare(&cmp, out, rep, bench)
	if err != nil || worse || strings.Contains(cmp.String(), "better") {
		t.Errorf("report against itself: worse=%v err=%v\n%s", worse, err, cmp.String())
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		a, b, spread float64
		better       string
		want         string
	}{
		{100, 95, 0.05, "higher", "same"},
		{100, 85, 0.05, "higher", "worse"},
		{100, 115, 0.05, "higher", "better"},
		{100, 115, 0.05, "lower", "worse"},
		{100, 80, 0.05, "lower", "better"},
		{100, 80, 0.20, "lower", "unresolved"},
		{3, 3, 0.20, "lower", "same"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.better, 0.10, tc.spread); got != tc.want {
			t.Errorf("verdict(%v -> %v, %s, spread %v) = %s, want %s", tc.a, tc.b, tc.better, tc.spread, got, tc.want)
		}
	}
}

// TestSpreadsCoverBenchmark checks that the seed report gives a run-to-run
// spread for every workload × end-to-end metric, so -prior can judge every
// row.
func TestSpreadsCoverBenchmark(t *testing.T) {
	bench, err := loadBenchmark(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	spreads, err := runSpreads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		for _, d := range bench.EndToEnd {
			if _, ok := spreads[[2]string{w.Name, d.Name}]; !ok {
				t.Errorf("no run-to-run spread for %s %s", w.Name, d.Name)
			}
		}
	}
}
