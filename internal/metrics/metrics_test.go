package metrics

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// newTestRegistry builds a registry exercising every instrument kind,
// including label values that need escaping.
func newTestRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("test_events_total", "events observed")
	c.Add(42)
	reg.Counter("test_by_kind_total", "events by kind", "kind", "read").Add(3)
	reg.Counter("test_by_kind_total", "events by kind", "kind", `torn "write"\n`).Add(1)
	reg.Counter("test_by_kind_total", "events by kind", "kind", "line\nbreak").Inc()
	reg.CounterFunc("test_func_total", "callback counter", func() int64 { return 11 })
	reg.GaugeFunc("test_ratio", "callback gauge", func() float64 { return 0.25 }, "side", "left")
	h := reg.Histogram("test_latency_seconds", "latency with a help line\nneeding escapes \\o/",
		ExpBuckets(0.001, 10, 4))
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.05, 0.5, 99} {
		h.Observe(v)
	}
	return reg
}

// TestPrometheusConformance: everything the registry writes must parse back
// under the strict text-format parser, HELP/TYPE pairs must precede every
// family, histogram buckets must be cumulative-monotone and consistent with
// _count, and escaped label values must round-trip.
func TestPrometheusConformance(t *testing.T) {
	reg := newTestRegistry()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := b.String()
	snap, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText on our own output: %v\n%s", err, text)
	}

	// Every sample's family (histogram series fold back to the base name)
	// must carry both a HELP and a TYPE header.
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && snap.Type[trimmed] == TypeHistogram {
				return trimmed
			}
		}
		return name
	}
	for _, sm := range snap.Samples {
		fam := base(sm.Name)
		if _, ok := snap.Help[fam]; !ok {
			t.Errorf("sample %s: no # HELP for family %s", sm.Name, fam)
		}
		if _, ok := snap.Type[fam]; !ok {
			t.Errorf("sample %s: no # TYPE for family %s", sm.Name, fam)
		}
	}

	// HELP escaping round-trips.
	if got, want := snap.Help["test_latency_seconds"], "latency with a help line\nneeding escapes \\o/"; got != want {
		t.Errorf("help round-trip: got %q want %q", got, want)
	}

	// Label escaping round-trips.
	if v, ok := snap.Value("test_by_kind_total", "kind", `torn "write"\n`); !ok || v != 1 {
		t.Errorf("escaped label value did not round-trip: %v %v", v, ok)
	}
	if v, ok := snap.Value("test_by_kind_total", "kind", "line\nbreak"); !ok || v != 1 {
		t.Errorf("newline label value did not round-trip: %v %v", v, ok)
	}

	// Scalar values.
	if v, _ := snap.Value("test_events_total"); v != 42 {
		t.Errorf("counter: got %v want 42", v)
	}
	if v, _ := snap.Value("test_func_total"); v != 11 {
		t.Errorf("counter func: got %v want 11", v)
	}
	if v, _ := snap.Value("test_ratio", "side", "left"); v != 0.25 {
		t.Errorf("gauge func: got %v want 0.25", v)
	}

	// Histogram: buckets cumulative-monotone, ending at +Inf == _count, and
	// _sum matches the observations.
	var prev float64 = -1
	var sawInf bool
	for _, sm := range snap.Samples {
		if sm.Name != "test_latency_seconds_bucket" {
			continue
		}
		if sm.Value < prev {
			t.Errorf("bucket le=%s: cumulative count %v < previous %v", sm.Labels["le"], sm.Value, prev)
		}
		prev = sm.Value
		if sm.Labels["le"] == "+Inf" {
			sawInf = true
		}
	}
	if !sawInf {
		t.Error("histogram has no +Inf bucket")
	}
	count, _ := snap.Value("test_latency_seconds_count")
	if count != 6 || prev != count {
		t.Errorf("histogram count: _count=%v last bucket=%v want 6", count, prev)
	}
	sum, _ := snap.Value("test_latency_seconds_sum")
	if want := 0.0005 + 0.002 + 0.002 + 0.05 + 0.5 + 99; math.Abs(sum-want) > 1e-9 {
		t.Errorf("histogram sum: got %v want %v", sum, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_seconds", "quantile fixture", []float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram must return NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // uniform-ish over (0, 8)
	}
	p50 := h.Quantile(0.50)
	if p50 < 2 || p50 > 6 {
		t.Errorf("p50 = %v, want within the central buckets", p50)
	}
	// The parsed-snapshot quantile must agree with the in-process one.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Quantile("q_seconds", 0.50); math.Abs(got-p50) > 1e-9 {
		t.Errorf("snapshot p50 %v != histogram p50 %v", got, p50)
	}
	if got := snap.Quantile("q_seconds", 0.99); math.Abs(got-h.Quantile(0.99)) > 1e-9 {
		t.Errorf("snapshot p99 %v != histogram p99 %v", got, h.Quantile(0.99))
	}
	h.Observe(1e6) // +Inf bucket clamps to the largest finite bound
	if got := h.Quantile(1.0); got != 8 {
		t.Errorf("+Inf quantile: got %v want clamp to 8", got)
	}
}

// TestRegistryIdempotentLookup: re-requesting an instrument with the same
// name and labels returns the same instance, so call sites need no caching.
func TestRegistryIdempotentLookup(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("idem_total", "h", "k", "v")
	b := reg.Counter("idem_total", "h", "k", "v")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	c := reg.Counter("idem_total", "h", "k", "other")
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
	h1 := reg.Histogram("idem_seconds", "h", []float64{1, 2})
	h2 := reg.Histogram("idem_seconds", "h", []float64{1, 2})
	if h1 != h2 {
		t.Error("same histogram name returned distinct instances")
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	reg.Counter("a_total", "h")
	mustPanic("type clash", func() { reg.GaugeFunc("a_total", "h", func() float64 { return 0 }) })
	mustPanic("bad name", func() { reg.Counter("0bad", "h") })
	mustPanic("bad label name", func() { reg.Counter("b_total", "h", "0k", "v") })
	mustPanic("odd labels", func() { reg.Counter("c_total", "h", "k") })
	mustPanic("empty buckets", func() { reg.Histogram("d_seconds", "h", nil) })
	mustPanic("descending buckets", func() { reg.Histogram("e_seconds", "h", []float64{2, 1}) })
	mustPanic("dup counter func", func() {
		reg.CounterFunc("f_total", "h", func() int64 { return 0 })
		reg.CounterFunc("f_total", "h", func() int64 { return 0 })
	})
}

// TestConcurrentInstruments hammers one counter, gauge, and histogram from
// many goroutines while they also register fresh labeled series, as the
// HTTP middleware does on the first request for a route and status code,
// and scrape — the race detector is the assertion.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "h")
	var depth atomic.Int64
	reg.GaugeFunc("conc_depth", "h", func() float64 { return float64(depth.Load()) })
	h := reg.Histogram("conc_seconds", "h", ExpBuckets(1e-6, 4, 8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				depth.Add(1)
				depth.Add(-1)
				h.Observe(float64(i) * 1e-6)
				if i%10 == 0 {
					id := strconv.Itoa(w*1000 + i)
					reg.Counter("conc_new_total", "h", "id", id).Inc()
					reg.CounterFunc("conc_func_total", "h", func() int64 { return 1 }, "id", id)
				}
				if i%100 == 0 {
					var b strings.Builder
					if err := reg.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
					if _, err := ParseText(strings.NewReader(b.String())); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter: got %d want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count: got %d want 8000", h.Count())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"conc_new_total", "conc_func_total"} {
		if n := strings.Count(b.String(), "\n"+name+"{"); n != 800 {
			t.Errorf("%s: scraped %d series, want 800", name, n)
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("got %d want 5", c.Value())
	}
}

// TestSnapshotSub: diffing two scrapes subtracts each series from the same
// series (name and full label set) of the earlier scrape, histogram buckets
// included, which is how a scrape client isolates the traffic between them
// from a server's lifetime totals; a series absent from the earlier scrape
// keeps its value.
func TestSnapshotSub(t *testing.T) {
	beforeText := `# HELP leak_sched_units_total u
# TYPE leak_sched_units_total counter
leak_sched_units_total 100
# HELP leak_store_lookups_total l
# TYPE leak_store_lookups_total counter
leak_store_lookups_total{result="hit"} 10
leak_store_lookups_total{result="miss"} 5
# HELP leak_job_seconds j
# TYPE leak_job_seconds histogram
leak_job_seconds_bucket{le="1"} 2
leak_job_seconds_bucket{le="+Inf"} 3
leak_job_seconds_sum 4
leak_job_seconds_count 3
`
	afterText := `# HELP leak_sched_units_total u
# TYPE leak_sched_units_total counter
leak_sched_units_total 350
# HELP leak_store_lookups_total l
# TYPE leak_store_lookups_total counter
leak_store_lookups_total{result="hit"} 100
leak_store_lookups_total{result="miss"} 15
# HELP leak_job_seconds j
# TYPE leak_job_seconds histogram
leak_job_seconds_bucket{le="1"} 6
leak_job_seconds_bucket{le="+Inf"} 10
leak_job_seconds_sum 12
leak_job_seconds_count 10
# HELP leak_store_repairs_total r
# TYPE leak_store_repairs_total counter
leak_store_repairs_total 3
`
	before, err := ParseText(strings.NewReader(beforeText))
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParseText(strings.NewReader(afterText))
	if err != nil {
		t.Fatal(err)
	}
	diff := after.Sub(before)
	if v, _ := diff.Value("leak_sched_units_total"); v != 250 {
		t.Errorf("units diff: got %v want 250", v)
	}
	hits, _ := diff.Value("leak_store_lookups_total", "result", "hit")
	misses, _ := diff.Value("leak_store_lookups_total", "result", "miss")
	if hits != 90 || misses != 10 {
		t.Errorf("lookup diff: got %v/%v want 90/10", hits, misses)
	}
	if rate := hits / (hits + misses); rate != 0.9 {
		t.Errorf("hit rate: got %v want 0.9", rate)
	}
	in1, _ := diff.Value("leak_job_seconds_bucket", "le", "1")
	inf, _ := diff.Value("leak_job_seconds_bucket", "le", "+Inf")
	if n, _ := diff.Value("leak_job_seconds_count"); in1 != 4 || inf != 7 || n != 7 {
		t.Errorf("histogram diff: buckets %v/%v count %v, want 4/7 and 7", in1, inf, n)
	}
	if v, _ := diff.Value("leak_store_repairs_total"); v != 3 {
		t.Errorf("series absent before: got %v want 3", v)
	}
}

// FuzzParseText: a /metrics scrape is either rejected, or every parsed
// sample is found again by Value under its own labels, and Quantile and
// Sub run on the snapshot without a panic. The seed corpus in
// testdata/fuzz holds a scheduler's scrape after one job, a registry
// exercising label and HELP escapes, duplicate +Inf and NaN buckets, and an
// unterminated label block.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, sm := range snap.Samples {
			var kv, noLE []string
			for k, v := range sm.Labels {
				kv = append(kv, k, v)
				if k != "le" {
					noLE = append(noLE, k, v)
				}
			}
			if _, ok := snap.Value(sm.Name, kv...); !ok {
				t.Fatalf("sample %s%v is not found by its own labels", sm.Name, sm.Labels)
			}
			if family, ok := strings.CutSuffix(sm.Name, "_bucket"); ok {
				for _, q := range []float64{0, 0.5, 0.99, 1} {
					snap.Quantile(family, q)
					snap.Quantile(family, q, noLE...)
				}
			}
		}
		snap.Sub(snap)
		snap.Sub(&Snapshot{})
	})
}
