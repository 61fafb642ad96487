package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Xeon Something
BenchmarkBatchRoundD7Wide-8 	   10000	    807651 ns/op	      3155 ns/shot	       0 B/op	       0 allocs/op
BenchmarkWideVsNarrow/static/wide-8         	      27	  97608991 ns/op	     47661 ns/shot	 1665070 B/op	    1551 allocs/op
BenchmarkWideVsNarrow/static/narrow-8       	      25	  91897546 ns/op	     44872 ns/shot	 1231937 B/op	     939 allocs/op
BenchmarkWideVsNarrow/adaptive/wide-8       	      22	  99592852 ns/op	     48629 ns/shot	 1277398 B/op	    4729 allocs/op
BenchmarkWideVsNarrow/adaptive/narrow-8     	      22	 108669750 ns/op	     53061 ns/shot	  690618 B/op	    1769 allocs/op
BenchmarkFigure14-8 	       1	   6084692 ns/op	         2.400 eraser_improvement_x
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro" {
		t.Fatalf("header not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkBatchRoundD7Wide-8" || b0.Iterations != 10000 {
		t.Fatalf("first benchmark parsed wrong: %+v", b0)
	}
	if b0.Metrics["allocs/op"] != 0 || b0.Metrics["ns/shot"] != 3155 {
		t.Fatalf("metrics parsed wrong: %+v", b0.Metrics)
	}
	if got := rep.Benchmarks[5].Metrics["eraser_improvement_x"]; got != 2.4 {
		t.Fatalf("custom metric parsed wrong: %v", got)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	prior := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkBatchRoundD7-8", Metrics: map[string]float64{
			"ns/op": 800000, "ns/shot": 3000, "allocs/op": 0}},
		{Name: "BenchmarkFigure14-8", Metrics: map[string]float64{"ns/op": 6000000}},
		{Name: "BenchmarkGone-8", Metrics: map[string]float64{"ns/op": 1}},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		// 25% slower and newly allocating: two regressions.
		{Name: "BenchmarkBatchRoundD7-16", Metrics: map[string]float64{
			"ns/op": 1000000, "ns/shot": 3050, "allocs/op": 2}},
		// 5% slower: within threshold.
		{Name: "BenchmarkFigure14-16", Metrics: map[string]float64{"ns/op": 6300000}},
		{Name: "BenchmarkNew-16", Metrics: map[string]float64{"ns/op": 10}},
	}}
	d := Compare(prior, cur, 10)
	if d.Regressions != 2 {
		t.Fatalf("flagged %d regressions, want 2: %+v", d.Regressions, d.Deltas)
	}
	byKey := map[string]Delta{}
	for _, dl := range d.Deltas {
		byKey[dl.Benchmark+" "+dl.Metric] = dl
	}
	nsop := byKey["BenchmarkBatchRoundD7 ns/op"]
	if !nsop.Regression || nsop.DeltaPct < 24.9 || nsop.DeltaPct > 25.1 {
		t.Fatalf("ns/op delta wrong: %+v", nsop)
	}
	allocs := byKey["BenchmarkBatchRoundD7 allocs/op"]
	if !allocs.Regression || allocs.DeltaPct != 0 {
		t.Fatalf("zero-to-nonzero allocs not flagged: %+v", allocs)
	}
	if fig := byKey["BenchmarkFigure14 ns/op"]; fig.Regression {
		t.Fatalf("within-threshold delta flagged: %+v", fig)
	}
	if len(d.Added) != 1 || d.Added[0] != "BenchmarkNew" {
		t.Fatalf("added list wrong: %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "BenchmarkGone" {
		t.Fatalf("removed list wrong: %v", d.Removed)
	}
	sum := d.Summary()
	for _, want := range []string{"2 regression(s)", "REGRESS BenchmarkBatchRoundD7 ns/op", "(was zero)", "added   BenchmarkNew", "removed BenchmarkGone"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestCompareIdenticalReportsAreClean(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(rep, rep, 10)
	if d.Regressions != 0 || len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("self-diff not clean: %+v", d)
	}
	if len(d.Deltas) == 0 {
		t.Fatal("self-diff produced no deltas")
	}
	for _, dl := range d.Deltas {
		if dl.DeltaPct != 0 {
			t.Fatalf("self-diff has nonzero delta: %+v", dl)
		}
	}
}

func TestParseSkipsMalformedLines(t *testing.T) {
	rep, err := Parse(strings.NewReader("BenchmarkBroken not-a-number ns/op\nBenchmarkOK 10 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("malformed line handling wrong: %+v", rep.Benchmarks)
	}
}
