// Example metricswatch is the observability quickstart: run a small sweep
// through the scheduler and read everything the metrics layer saw, entirely
// in-process — no Prometheus server required.
//
// It demonstrates the three consumption patterns the layer supports:
//
//  1. before/after snapshot diff — render the registry to text, parse it
//     back (the same round trip a real scrape does), and subtract the
//     pre-run snapshot to isolate exactly what the run cost: units
//     simulated, store hits vs misses, bytes persisted;
//  2. histogram quantiles — job end-to-end latency and per-stage (sim /
//     decode / store_merge) worker-time percentiles straight from the
//     scraped buckets, matching what `rate()` + `histogram_quantile()`
//     would show on a dashboard;
//  3. per-job span traces — the chunk-granular event log behind
//     GET /v1/trace?job=, printed for one cold and one warm job.
//
// Against a live server the same flow is: scrape GET /metrics twice and
// diff (cmd/leakwatch's footer does exactly this for its window).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	st, err := store.Open("") // use a directory to persist across runs
	if err != nil {
		log.Fatal(err)
	}
	sched := service.New(st, 0)

	cfg := func(d int, seed uint64) experiment.Config {
		return experiment.Config{Distance: d, Cycles: 4, P: 1.5e-3, Shots: 512,
			Seed: seed, Policy: core.PolicyEraser}
	}

	// 1. Snapshot, run, snapshot, diff.
	before := scrape(sched)
	var cold, warm *service.Job
	for _, d := range []int{3, 5} {
		j, err := sched.Submit(cfg(d, 2023), service.Precision{})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := j.Result(); err != nil {
			log.Fatal(err)
		}
		if d == 3 {
			cold = j
		}
	}
	// Re-submit one point: answered from the store, zero units.
	warm, err = sched.Submit(cfg(3, 2023), service.Precision{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := warm.Result(); err != nil {
		log.Fatal(err)
	}
	after := scrape(sched)

	diff := after.Sub(before)
	units, _ := diff.Value("leak_sched_units_total")
	done, _ := diff.Value("leak_sched_jobs_total", "outcome", "done")
	cached, _ := diff.Value("leak_sched_jobs_total", "outcome", "cached")
	hits, _ := diff.Value("leak_store_lookups_total", "result", "hit")
	misses, _ := diff.Value("leak_store_lookups_total", "result", "miss")
	merges, _ := diff.Value("leak_store_merges_total")
	fmt.Printf("run cost (after - before):\n")
	fmt.Printf("  units simulated   %d\n", int64(units))
	fmt.Printf("  jobs              %d cold + %d cached\n", int64(done), int64(cached))
	fmt.Printf("  store             %d hits / %d misses, %d merges\n",
		int64(hits), int64(misses), int64(merges))

	// 2. Latency quantiles from the scraped histogram buckets.
	fmt.Printf("\nlatency quantiles (histogram estimates):\n")
	fmt.Printf("  job e2e   p50 %s  p90 %s\n",
		quantile(diff, "leak_sched_job_seconds", 0.50),
		quantile(diff, "leak_sched_job_seconds", 0.90))
	for _, stage := range []string{"sim", "decode", "store_merge"} {
		fmt.Printf("  %-11s p50 %s  p90 %s\n", stage,
			quantile(diff, "leak_sched_stage_seconds", 0.50, "stage", stage),
			quantile(diff, "leak_sched_stage_seconds", 0.90, "stage", stage))
	}

	// 3. Span traces: what one cold and one warm job actually did.
	fmt.Printf("\ncold job trace (%s):\n", cold.ID)
	printTrace(cold.Trace())
	fmt.Printf("\nwarm job trace (%s):\n", warm.ID)
	printTrace(warm.Trace())
}

// scrape renders the registry and parses it back — the in-process
// equivalent of GET /metrics.
func scrape(sched *service.Scheduler) *metrics.Snapshot {
	var buf bytes.Buffer
	if err := sched.Registry().WritePrometheus(&buf); err != nil {
		log.Fatal(err)
	}
	snap, err := metrics.ParseText(&buf)
	if err != nil {
		log.Fatal(err)
	}
	return snap
}

func quantile(snap *metrics.Snapshot, name string, q float64, kv ...string) string {
	v := snap.Quantile(name, q, kv...)
	if math.IsNaN(v) {
		return "n/a"
	}
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func printTrace(tv service.TraceView) {
	for _, ev := range tv.Events {
		line := fmt.Sprintf("  %7.2fms  %-12s", ev.AtMS, ev.Kind)
		if ev.UnitHi > ev.UnitLo {
			line += fmt.Sprintf(" units [%d, %d)", ev.UnitLo, ev.UnitHi)
		}
		if ev.DurMS > 0 {
			line += fmt.Sprintf(" %.2fms", ev.DurMS)
		}
		if ev.Note != "" {
			line += " (" + ev.Note + ")"
		}
		fmt.Println(line)
	}
	if tv.Dropped > 0 {
		fmt.Printf("  ... %d older events dropped from the ring\n", tv.Dropped)
	}
}
