// Command eraserbench is the repository's benchmark. It runs four named
// workloads — the d=7 {Always, ERASER} × {p=1e-3, p=1e-4} engine grid — each
// in child processes of its own, prints every metric by name with its unit,
// checks the outputs, and optionally runs a traced pass that splits each
// shot's cost across the layers.
//
// Build and run it from the repository root:
//
//	bash bench/eraserbench/run.sh                          # all workloads
//	bash bench/eraserbench/run.sh -workload eraser-d7-p1e-4 -seed 7 -seconds 10
//	bash bench/eraserbench/run.sh -trace 1 -spans bench/eraserbench/out -out new.json -prior old.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json lists (end_to_end with -trace 0,
// per_layer with -trace 1). The exit code is non-zero when a check or a
// trace gate fails, a child fails, or -prior finds a metric worse than its
// bound.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// reps is the number of identical measured reps per workload, each
	// preceded by a set-up probe; throughput and latency come from the least
	// disturbed rep.
	reps = 10
	// childEnv marks a child process (the smoke test's TestMain reads it).
	childEnv = "ERASERBENCH_CHILD"
	// workloadBudget bounds everything one workload's children may take.
	workloadBudget = 170 * time.Second
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	spans     string
	out       string
	prior     string
	benchmark string
	child     string
}

// Check is one output check (or, in Gates, one trace gate).
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// childResult is what a measure or trace child prints as its last line.
type childResult struct {
	Metrics   map[string]Metric `json:"metrics"`
	Checks    []Check           `json:"checks,omitempty"`
	Gates     []Check           `json:"gates,omitempty"`
	OpsTotal  int               `json:"ops_total"`
	OpsFailed int               `json:"ops_failed"`
}

// workloadReport is one workload's entry in the report: end-to-end metrics
// from the untraced run, per-layer metrics from the traced pass.
type workloadReport struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	OpsTotal  int               `json:"ops_total"`
	OpsFailed int               `json:"ops_failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Layers    map[string]Metric `json:"layers,omitempty"`
	Checks    []Check           `json:"checks"`
	Gates     []Check           `json:"gates,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
}

type report struct {
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Reps      int               `json:"reps"`
	Traced    bool              `json:"traced"`
	Host      *hostInfo         `json:"host,omitempty"`
	Workloads []*workloadReport `json:"workloads"`
}

type hostInfo struct {
	CPU             string `json:"cpu"`
	NumCPU          int    `json:"nproc"`
	ChildGOMAXPROCS int    `json:"child_gomaxprocs"`
	Go              string `json:"go"`
	Commit          string `json:"commit"`
	Modified        bool   `json:"modified"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eraserbench:", err)
		return 2
	}
	if o.child != "" {
		// A child's own children (set-up probes) die with this deadline.
		ctx, cancel := context.WithTimeout(context.Background(), workloadBudget)
		defer cancel()
		return runChild(ctx, o, stdout)
	}
	return orchestrate(context.Background(), o, stdout)
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("eraserbench", flag.ContinueOnError)
	var o options
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "all", "all, or one of "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 2023, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload at the nominal rates")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced per-layer pass")
	fs.StringVar(&o.spans, "spans", "", "write the traced pass's spans to `dir`/<workload>.spans.jsonl")
	fs.StringVar(&o.out, "out", "", "write the JSON report to `file`")
	fs.StringVar(&o.prior, "prior", "", "compare against an earlier report `file`")
	fs.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition: metric names and bounds")
	fs.StringVar(&o.child, "child", "", "internal: run one phase (setup, measure or trace) of one workload")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1")
	case !(o.seconds > 0):
		return o, fmt.Errorf("-seconds must be positive")
	case o.workload != "all" && workloadNamed(o.workload) == nil:
		return o, fmt.Errorf("unknown workload %q (valid: all, %s)", o.workload, strings.Join(names, ", "))
	case o.child != "" && o.workload == "all":
		return o, fmt.Errorf("-child needs one -workload")
	}
	o.trace = trace == 1
	return o, nil
}

// runChild runs one phase of one workload in this process. The setup
// phase prints "ready" once set up; measure and trace print a childResult.
func runChild(ctx context.Context, o options, stdout io.Writer) int {
	w := workloadNamed(o.workload)
	var res *childResult
	var err error
	switch o.child {
	case "setup":
		if err := setupEngine(ctx, w, o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: setup: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	case "measure":
		res, err = measureEngine(ctx, w, o)
	case "trace":
		tr := newTracer()
		res, err = traceEngine(ctx, w, o, tr)
		if err == nil && o.spans != "" {
			err = tr.write(o.spans, w.name)
		}
	default:
		err = fmt.Errorf("unknown phase %q", o.child)
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", w.name, o.child, err)
		return 1
	}
	return 0
}

func orchestrate(ctx context.Context, o options, stdout io.Writer) int {
	bench, err := loadBenchmark(o.benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eraserbench:", err)
		return 2
	}
	selected := workloads
	if o.workload != "all" {
		selected = []*workload{workloadNamed(o.workload)}
	}
	rep := &report{Seed: o.seed, Seconds: o.seconds, Reps: reps, Traced: o.trace}
	for _, w := range selected {
		wr := runWorkload(ctx, w, o)
		printWorkload(stdout, wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	code := 0
	if o.out != "" {
		rep.Host = host()
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "eraserbench:", err)
			code = 1
		}
	}
	if o.prior != "" {
		worse, err := compare(stdout, o.prior, rep, bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eraserbench:", err)
			code = 1
		}
		if worse {
			code = 1
		}
	}
	line := resultLine(rep, bench, o.trace)
	if !line.Correct {
		code = 1
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "eraserbench:", err)
		return 1
	}
	return code
}

// runWorkload runs the measured child and, with -trace 1, the traced
// child.
func runWorkload(ctx context.Context, w *workload, o options) *workloadReport {
	ctx, cancel := context.WithTimeout(ctx, workloadBudget)
	defer cancel()
	wr := &workloadReport{Name: w.name, Metrics: map[string]Metric{}}
	fail := func(err error) {
		wr.Errors = append(wr.Errors, err.Error())
		wr.OpsTotal++
		wr.OpsFailed++
	}
	add := func(res *childResult) {
		wr.OpsTotal += res.OpsTotal
		wr.OpsFailed += res.OpsFailed
		wr.Checks = append(wr.Checks, res.Checks...)
		wr.Gates = append(wr.Gates, res.Gates...)
	}
	res, usage, err := spawn(ctx, w, o, "measure")
	if err != nil {
		fail(err)
	} else {
		add(res)
		for k, v := range res.Metrics {
			wr.Metrics[k] = v
		}
		wr.Metrics["peak_rss_mb"] = single("MiB", float64(usage.Maxrss)/1024)
	}
	if o.trace {
		res, _, err := spawn(ctx, w, o, "trace")
		if err != nil {
			fail(err)
		} else {
			add(res)
			wr.Layers = res.Metrics
		}
	}
	wr.Correct = len(wr.Errors) == 0 && wr.OpsFailed == 0
	for _, c := range wr.Checks {
		wr.Correct = wr.Correct && c.OK
	}
	// A failed trace gate means the per-layer ledger no longer describes the
	// runner, so it fails the run like a failed output check.
	for _, g := range wr.Gates {
		wr.Correct = wr.Correct && g.OK
	}
	return wr
}

// childCmd re-executes this binary for one phase of one workload, with
// GOMAXPROCS pinned to the reference host's 2 CPUs.
func childCmd(ctx context.Context, w *workload, o options, phase string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", phase, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds)}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2", childEnv+"=1")
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// probeSetup starts a fresh set-up child and times it from exec until it
// reports ready: process start, set-up and the warm-up chunk.
func probeSetup(ctx context.Context, w *workload, o options) (time.Duration, error) {
	cmd, err := childCmd(ctx, w, o, "setup")
	if err != nil {
		return 0, err
	}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(pipe).ReadString('\n')
	d := time.Since(start)
	io.Copy(io.Discard, pipe) // let the child finish writing before Wait
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("setup child: no ready line (%q, %v)", line, readErr)
	}
	return d, nil
}

// spawn runs one measure or trace child and decodes its last line.
func spawn(ctx context.Context, w *workload, o options, phase string) (*childResult, *syscall.Rusage, error) {
	cmd, err := childCmd(ctx, w, o, phase)
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s child: %w", phase, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("%s child: result line: %w", phase, err)
	}
	usage, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if usage == nil {
		usage = &syscall.Rusage{}
	}
	return &res, usage, nil
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return &b, nil
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

// resultLine builds the closing JSON line from the metrics BENCHMARK.json
// lists; with several workloads each name is prefixed "<workload>/".
func resultLine(rep *report, bench *benchmarkFile, traced bool) line {
	l := line{Correct: true, Metrics: map[string]lineValue{}}
	for _, wr := range rep.Workloads {
		l.Correct = l.Correct && wr.Correct
		l.Attempted += wr.OpsTotal
		l.Failed += wr.OpsFailed
		defs, src := bench.EndToEnd, wr.Metrics
		if traced {
			defs, src = bench.PerLayer, wr.Layers
		}
		for _, d := range defs {
			m, ok := src[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(os.Stderr, "%s: metric %s missing\n", wr.Name, d.Name)
				l.Correct = false
				continue
			}
			key := d.Name
			if len(rep.Workloads) > 1 {
				key = wr.Name + "/" + d.Name
			}
			l.Metrics[key] = lineValue{Value: m.Value, Unit: m.Unit}
		}
	}
	l.Attempted = max(l.Attempted, 1)
	return l
}

func printWorkload(w io.Writer, wr *workloadReport) {
	state := "correct"
	if !wr.Correct {
		state = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s: %s, %d ops, %d failed\n", wr.Name, state, wr.OpsTotal, wr.OpsFailed)
	printMetrics(w, wr.Metrics, 0)
	if wr.Layers != nil {
		fmt.Fprintln(w, "  traced pass:")
		printMetrics(w, wr.Layers, wr.Layers["trace.ns_per_shot"].Value)
	}
	for _, c := range wr.Checks {
		fmt.Fprintf(w, "  check %-4s %s: %s\n", okWord(c.OK), c.Name, c.Detail)
	}
	for _, g := range wr.Gates {
		fmt.Fprintf(w, "  gate  %-4s %s: %s\n", okWord(g.OK), g.Name, g.Detail)
	}
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "  error %s\n", e)
	}
}

// printMetrics prints metrics sorted by name; per-shot layer times also
// show their share of the traced time per shot.
func printMetrics(w io.Writer, ms map[string]Metric, tracedNS float64) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s", k, m.Value, m.Unit)
		switch {
		case m.N > 1:
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", m.Min, m.Max, m.N)
		case m.Unit == "ns/shot" && tracedNS > 0 && k != "trace.ns_per_shot":
			fmt.Fprintf(w, " %5.1f%% of traced", 100*m.Value/tracedNS)
		}
		fmt.Fprintln(w)
	}
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("report %s: %w", path, err)
	}
	return &rep, nil
}

// host describes the machine and build for the report.
func host() *hostInfo {
	h := &hostInfo{NumCPU: runtime.NumCPU(), ChildGOMAXPROCS: 2, Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}
