// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report, so CI can publish benchmark numbers as a
// build artifact instead of burying them in a log.
//
//	go test -run XXX -bench 'BenchmarkBatchRoundD7Wide$|BenchmarkFigure14$' -benchmem . | benchjson -out BENCH_10.json
//
// Every benchmark line is captured with all its metrics (ns/op, custom
// b.ReportMetric units like ns/shot, B/op, allocs/op).
//
// With -prior, the report is diffed against a previous run's JSON
// (benchmarks matched by name with the GOMAXPROCS suffix stripped): every
// shared lower-is-better metric gets a signed delta %, growth beyond
// -regress-pct is flagged, and the diff is embedded in the output JSON so
// the artifact chain (BENCH_9.json -> BENCH_10.json -> ...) carries its own
// history. A human summary goes to stderr; -fail-on-regress turns flags into
// a nonzero exit for gating jobs (timing numbers on shared CI runners are
// noisy — the default is report-only).
//
//	benchjson -prior bench/BENCH_9.json -out BENCH_10.json < bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Diff       *DiffReport `json:"diff,omitempty"`
}

// Delta is one benchmark metric's change against the prior report. DeltaPct
// is signed ((current-prior)/prior, in percent; positive = slower/bigger) and
// 0 when the prior value was 0 — a zero-to-nonzero move is still flagged as a
// regression (the zero-alloc contracts care about exactly that edge).
type Delta struct {
	Benchmark  string  `json:"benchmark"`
	Metric     string  `json:"metric"`
	Prior      float64 `json:"prior"`
	Current    float64 `json:"current"`
	DeltaPct   float64 `json:"delta_pct"`
	Regression bool    `json:"regression,omitempty"`
}

// DiffReport is the embedded comparison against a prior report.
type DiffReport struct {
	Prior        string  `json:"prior,omitempty"` // path the prior came from
	ThresholdPct float64 `json:"threshold_pct"`
	Deltas       []Delta `json:"deltas"`
	Regressions  int     `json:"regressions"`
	// Added/Removed list benchmarks present in only one of the two reports
	// (base names); a rename shows up as one of each.
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	prior := flag.String("prior", "", "prior report JSON to diff against")
	regressPct := flag.Float64("regress-pct", 10,
		"flag lower-is-better metrics that grew more than this percent")
	failOnRegress := flag.Bool("fail-on-regress", false,
		"exit nonzero when the diff flags any regression")
	flag.Parse()

	rep, err := Parse(os.Stdin)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark lines in input")
	}
	if *prior != "" {
		data, err := os.ReadFile(*prior)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		var prev Report
		if err := json.Unmarshal(data, &prev); err != nil {
			log.Fatalf("benchjson: parse prior %s: %v", *prior, err)
		}
		rep.Diff = Compare(&prev, rep, *regressPct)
		rep.Diff.Prior = *prior
		fmt.Fprint(os.Stderr, rep.Diff.Summary())
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	if *failOnRegress && rep.Diff != nil && rep.Diff.Regressions > 0 {
		log.Fatalf("benchjson: %d regression(s) over %.0f%%", rep.Diff.Regressions, *regressPct)
	}
}

// Parse reads `go test -bench` output and assembles the report.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseLine parses one result line: a name, an iteration count, then
// alternating value/unit metric pairs.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

// benchBase strips the -N GOMAXPROCS suffix go test appends to benchmark
// names ("BenchmarkFoo-8" -> "BenchmarkFoo"), including on sub-benchmarks.
func benchBase(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// diffMetrics are the lower-is-better metrics Compare diffs; growth beyond
// the threshold is a regression. Custom higher-is-better metrics (such as
// eraser_improvement_x) are reported but not flagged here.
var diffMetrics = []string{"ns/op", "ns/shot", "B/op", "allocs/op"}

// Compare diffs cur against prior: benchmarks are matched by base name (the
// GOMAXPROCS suffix stripped, so reports from differently-sized runners still
// align) and every shared lower-is-better metric gets a Delta.
func Compare(prior, cur *Report, thresholdPct float64) *DiffReport {
	d := &DiffReport{ThresholdPct: thresholdPct}
	prev := map[string]Benchmark{}
	for _, b := range prior.Benchmarks {
		prev[benchBase(b.Name)] = b
	}
	seen := map[string]bool{}
	for _, b := range cur.Benchmarks {
		base := benchBase(b.Name)
		seen[base] = true
		pb, ok := prev[base]
		if !ok {
			d.Added = append(d.Added, base)
			continue
		}
		for _, metric := range diffMetrics {
			curV, okC := b.Metrics[metric]
			priV, okP := pb.Metrics[metric]
			if !okC || !okP {
				continue
			}
			delta := Delta{Benchmark: base, Metric: metric, Prior: priV, Current: curV}
			switch {
			case priV > 0:
				delta.DeltaPct = (curV - priV) / priV * 100
				delta.Regression = delta.DeltaPct > thresholdPct
			case curV > 0:
				// Zero to nonzero: no meaningful percentage, always flagged
				// (this is how a broken zero-alloc contract surfaces).
				delta.Regression = true
			}
			if delta.Regression {
				d.Regressions++
			}
			d.Deltas = append(d.Deltas, delta)
		}
	}
	for base := range prev {
		if !seen[base] {
			d.Removed = append(d.Removed, base)
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// Summary renders the diff for humans (the stderr report in CI logs).
func (d *DiffReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff vs %s (threshold %.0f%%): %d metric(s), %d regression(s)\n",
		d.Prior, d.ThresholdPct, len(d.Deltas), d.Regressions)
	for _, dl := range d.Deltas {
		if !dl.Regression {
			continue
		}
		if dl.Prior == 0 {
			fmt.Fprintf(&b, "  REGRESS %s %s: %g -> %g (was zero)\n",
				dl.Benchmark, dl.Metric, dl.Prior, dl.Current)
			continue
		}
		fmt.Fprintf(&b, "  REGRESS %s %s: %g -> %g (%+.1f%%)\n",
			dl.Benchmark, dl.Metric, dl.Prior, dl.Current, dl.DeltaPct)
	}
	for _, name := range d.Added {
		fmt.Fprintf(&b, "  added   %s\n", name)
	}
	for _, name := range d.Removed {
		fmt.Fprintf(&b, "  removed %s\n", name)
	}
	return b.String()
}
