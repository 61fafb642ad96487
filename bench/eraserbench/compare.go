package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

var errNoCommon = errors.New("compare: no workload in common with the prior report")

// seedReport is BENCH_11.json. Its spread section holds the run-to-run
// spread of every workload × end-to-end metric: the quartile distance over
// ten full runs, as a share of their median.
//
//go:embed BENCH_11.json
var seedReport []byte

// runSpreads reads the seed report's spread table, keyed by workload and
// metric.
func runSpreads() (map[[2]string]float64, error) {
	var doc struct {
		Spread struct {
			Rows []struct {
				Workload string  `json:"workload"`
				Metric   string  `json:"metric"`
				Spread   float64 `json:"iqr_over_median"`
			} `json:"rows"`
		} `json:"spread"`
	}
	if err := json.Unmarshal(seedReport, &doc); err != nil {
		return nil, fmt.Errorf("compare: seed report: %w", err)
	}
	out := make(map[[2]string]float64, len(doc.Spread.Rows))
	for _, r := range doc.Spread.Rows {
		out[[2]string{r.Workload, r.Metric}] = r.Spread
	}
	return out, nil
}

// compare prints one row per workload × end-to-end metric of the current
// report against the prior one — both values, the change, the bound from
// BENCHMARK.json and a verdict — and, when both runs used the same seed and
// length, the per-layer counts, which must then match exactly. It reports
// whether any row is worse.
func compare(w io.Writer, priorPath string, cur *report, bench *benchmarkFile) (bool, error) {
	prior, err := readReport(priorPath)
	if err != nil {
		return false, err
	}
	spreads, err := runSpreads()
	if err != nil {
		return false, err
	}
	byName := make(map[string]*workloadReport, len(prior.Workloads))
	for _, wr := range prior.Workloads {
		byName[wr.Name] = wr
	}
	sameInputs := prior.Seed == cur.Seed && prior.Seconds == cur.Seconds
	fmt.Fprintf(w, "compare with %s (seed %d, %gs)\n", priorPath, prior.Seed, prior.Seconds)
	fmt.Fprintf(w, "  %-16s %-30s %14s %14s %9s %6s  %s\n", "workload", "metric", "prior", "current", "delta", "bound", "verdict")
	worse, rows := false, 0
	row := func(wl string, d benchMetric, a, b Metric, bound, spread float64) {
		delta, v := verdict(a.Value, b.Value, d.Better, bound, spread)
		if v == "unresolved" {
			v = fmt.Sprintf("unresolved (run-to-run spread %.1f%%)", 100*spread)
			if math.IsInf(spread, 1) {
				v = "unresolved (run-to-run spread not measured)"
			}
		}
		worse = worse || v == "worse"
		rows++
		fmt.Fprintf(w, "  %-16s %-30s %14.6g %14.6g %+8.2f%% %5.1f%%  %s\n", wl, d.Name, a.Value, b.Value, 100*delta, 100*bound, v)
	}
	for _, wr := range cur.Workloads {
		pw := byName[wr.Name]
		if pw == nil {
			continue
		}
		for _, d := range bench.EndToEnd {
			a, okA := pw.Metrics[d.Name]
			b, okB := wr.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			spread, ok := spreads[[2]string{wr.Name, d.Name}]
			if !ok {
				spread = math.Inf(1)
			}
			row(wr.Name, d, a, b, d.Bound, spread)
		}
		if !sameInputs {
			continue
		}
		for _, d := range bench.PerLayer {
			a, okA := pw.Layers[d.Name]
			b, okB := wr.Layers[d.Name]
			if okA && okB && (d.Unit == "count" || d.Unit == "ratio") {
				row(wr.Name, d, a, b, 0, 0)
			}
		}
	}
	if rows == 0 {
		return false, errNoCommon
	}
	return worse, nil
}

// verdict classifies the change from a to b: better or worse when it
// exceeds bound in that direction, same within it, and unresolved when the
// metric's run-to-run spread exceeds the bound, so that one run per side
// cannot tell a change from noise.
func verdict(a, b float64, better string, bound, spread float64) (float64, string) {
	if a == b {
		return 0, "same"
	}
	delta := (b - a) / a
	gain := delta
	if better == "lower" {
		gain = -delta
	}
	switch {
	case spread > bound:
		return delta, "unresolved"
	case gain > bound:
		return delta, "better"
	case gain < -bound:
		return delta, "worse"
	}
	return delta, "same"
}
