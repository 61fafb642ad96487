// Command leakload is a load generator for leakserved: N concurrent clients
// submitting a warm/cold mix of sweep points, honoring the server's
// backpressure signals (429 + Retry-After, 503 while draining), and
// reporting end-to-end latency percentiles alongside shed/cached counts.
//
//	leakserved -addr :8714 -store ./results -max-pending 8 &
//	leakload -url http://localhost:8714 -clients 16 -duration 30s -warm 0.5
//
// Warm requests reuse a small fixed pool of configs, so after the first
// round they are answered from the store without simulating; cold requests
// draw fresh seeds, so each one costs real work. Pushing the cold side past
// -max-pending exercises load-shedding: shed requests back off for the
// server-suggested interval and retry, and the summary shows how much
// cached traffic kept flowing while cold traffic queued.
//
// Besides its own client-side percentiles, leakload scrapes the server's
// /metrics endpoint before and after the run and reports the server-side
// view of the same window: sustained units/sec, the store's cache hit rate,
// and job-latency quantiles from the leak_sched_job_seconds histogram. A
// run with -warm 0.9 against a pre-warmed store reproduces the headline
// "sustained queries/sec at 90% warm-cache traffic" number in one command.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
)

type counters struct {
	submitted atomic.Int64
	done      atomic.Int64
	cached    atomic.Int64
	shed      atomic.Int64
	draining  atomic.Int64
	failed    atomic.Int64
}

func main() {
	var (
		url      = flag.String("url", "http://localhost:8714", "leakserved base URL")
		clients  = flag.Int("clients", 8, "concurrent clients")
		duration = flag.Duration("duration", 15*time.Second, "how long to generate load")
		warmFrac = flag.Float64("warm", 0.5, "fraction of requests drawn from the warm config pool")
		warmPool = flag.Int("warm-pool", 4, "number of distinct warm configs")
		distance = flag.Int("d", 3, "code distance")
		cycles   = flag.Int("cycles", 2, "QEC cycles (rounds = cycles*distance)")
		shots    = flag.Int("shots", 256, "shots per request")
		p        = flag.Float64("p", 2e-3, "physical error rate")
		policy   = flag.String("policy", "eraser", "LRC policy")
	)
	flag.Parse()

	body := func(seed uint64) []byte {
		b, _ := json.Marshal(service.RunRequest{Config: service.ConfigSpec{
			Distance: *distance, Cycles: *cycles, P: *p, Shots: *shots,
			Seed: seed, Policy: *policy,
		}})
		return b
	}

	var (
		ctrs      counters
		latMu     sync.Mutex
		latencies []time.Duration
		coldSeed  atomic.Uint64
	)
	coldSeed.Store(1 << 20) // keep cold seeds disjoint from the warm pool

	// Scrape the server's metrics before the run; the after-scrape minus
	// this snapshot isolates exactly the traffic this run generated.
	before, scrapeErr := scrape(*url)
	if scrapeErr != nil {
		log.Printf("leakload: pre-run metrics scrape failed (server-side report disabled): %v", scrapeErr)
	}
	runStart := time.Now()
	stop := runStart.Add(*duration)

	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 0x10ad))
			client := &http.Client{Timeout: 5 * time.Minute}
			for time.Now().Before(stop) {
				var seed uint64
				if rng.Float64() < *warmFrac {
					seed = uint64(rng.IntN(*warmPool))
				} else {
					seed = coldSeed.Add(1)
				}
				start := time.Now()
				st, err := oneRequest(client, *url, body(seed), &ctrs, stop)
				if err != nil {
					ctrs.failed.Add(1)
					log.Printf("client %d: %v", c, err)
					continue
				}
				if st == nil {
					continue // shed/draining until the deadline, or deadline hit
				}
				ctrs.done.Add(1)
				if st.Cached {
					ctrs.cached.Add(1)
				}
				latMu.Lock()
				latencies = append(latencies, time.Since(start))
				latMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(runStart)

	fmt.Printf("leakload: %d submitted, %d completed (%d cached), %d shed, %d refused draining, %d failed\n",
		ctrs.submitted.Load(), ctrs.done.Load(), ctrs.cached.Load(),
		ctrs.shed.Load(), ctrs.draining.Load(), ctrs.failed.Load())

	// Client side: end-to-end percentiles over this process's completed
	// requests, nearest-rank on the sorted sample.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) == 0 {
		fmt.Println("leakload: no completed requests to report latency on")
	} else {
		pct := func(q float64) time.Duration {
			d, _ := percentile(latencies, q)
			return d.Round(time.Millisecond)
		}
		fmt.Printf("leakload: client latency p50 %v  p90 %v  p99 %v  max %v\n",
			pct(0.50), pct(0.90), pct(0.99), latencies[len(latencies)-1].Round(time.Millisecond))
	}

	// Server side: the same run as the scheduler saw it, from the /metrics
	// diff — units/sec actually simulated, the store's cache hit rate, and
	// the job-latency histogram quantiles next to the client's percentiles.
	// This is the reproducible headline-number report: run against a
	// pre-warmed store with -warm 0.9 and the "units/sec at 90% warm
	// traffic" figure falls out of one invocation.
	if scrapeErr == nil {
		after, err := scrape(*url)
		if err != nil {
			log.Printf("leakload: post-run metrics scrape failed: %v", err)
		} else {
			printServerReport(before, after, elapsed)
		}
	}
	if len(latencies) == 0 {
		os.Exit(1)
	}
}

// percentile returns the q-quantile of the ascending-sorted sample by the
// nearest-rank definition (the smallest element with at least ⌈q·n⌉ samples
// at or below it), false on an empty sample. Unlike the previous
// interpolation-free `q*(n-1)` index, nearest rank agrees with the
// server-side histogram convention: p99 of 100 samples is the 99th value,
// not the 98.01st truncated to the 98th.
func percentile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], true
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(base string) (*metrics.Snapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// printServerReport renders the server-side view of the run from the
// before/after metrics diff.
func printServerReport(before, after *metrics.Snapshot, elapsed time.Duration) {
	diff := after.Sub(before)
	units, _ := diff.Value("leak_sched_units_total")
	hits, _ := diff.Value("leak_store_lookups_total", "result", "hit")
	misses, _ := diff.Value("leak_store_lookups_total", "result", "miss")
	jobs, _ := diff.Value("leak_sched_job_seconds_count")
	sheds, _ := diff.Value("leak_sched_sheds_total")

	fmt.Printf("leakload: server: %.1f units/sec (%d units in %v), %.1f jobs/sec, %d shed\n",
		units/elapsed.Seconds(), int64(units), elapsed.Round(time.Millisecond),
		jobs/elapsed.Seconds(), int64(sheds))
	wide, _ := diff.Value("leak_sched_units_by_width_total", "width", "256")
	narrow, _ := diff.Value("leak_sched_units_by_width_total", "width", "64")
	scalar, _ := diff.Value("leak_sched_units_by_width_total", "width", "1")
	if units > 0 {
		fmt.Printf("leakload: server: engine width: %.1f%% whole-block-256 (%d units), %d partial-block, %d scalar\n",
			100*wide/units, int64(wide), int64(narrow), int64(scalar))
	}
	if hits+misses > 0 {
		fmt.Printf("leakload: server: cache hit rate %.1f%% (%d hits, %d misses)\n",
			100*hits/(hits+misses), int64(hits), int64(misses))
	}
	q := func(p float64) string {
		v := diff.Quantile("leak_sched_job_seconds", p)
		if math.IsNaN(v) {
			return "n/a"
		}
		return time.Duration(v * float64(time.Second)).Round(time.Millisecond).String()
	}
	fmt.Printf("leakload: server: job latency p50 %s  p90 %s  p99 %s (histogram estimate)\n",
		q(0.50), q(0.90), q(0.99))
}

// oneRequest submits one config and polls it to completion, backing off as
// the server directs when shed. A nil, nil return means the request never
// completed before the deadline (persistent shedding or drain).
func oneRequest(client *http.Client, base string, body []byte, ctrs *counters, deadline time.Time) (*service.Status, error) {
	var rr service.RunResponse
	for {
		if !time.Now().Before(deadline) {
			return nil, nil
		}
		ctrs.submitted.Add(1)
		resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			err := json.NewDecoder(resp.Body).Decode(&rr)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.StatusCode == http.StatusTooManyRequests {
				ctrs.shed.Add(1)
			} else {
				ctrs.draining.Add(1)
			}
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			drain(resp)
			time.Sleep(wait)
			continue
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return nil, fmt.Errorf("POST /v1/run: %d %s", resp.StatusCode, msg)
		}
		break
	}

	for {
		resp, err := client.Get(base + "/v1/result?job=" + rr.Job)
		if err != nil {
			return nil, err
		}
		var res service.ResultResponse
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch res.Status.State {
		case "done":
			return &res.Status, nil
		case "error":
			return nil, fmt.Errorf("job %s: %s", rr.Job, res.Status.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}
