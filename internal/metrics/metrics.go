// Package metrics is the zero-dependency instrumentation layer of the sweep
// service: race-clean atomic counters, fixed-bucket histograms and
// scrape-time callback counters and gauges, registered in a Registry that
// exposes them in Prometheus text format 0.0.4 (`# HELP`/`# TYPE` headers,
// escaped labels, cumulative `_bucket`/`_sum`/`_count` histogram series).
// It exists so every layer of the service —
// store, scheduler, chaos injector, HTTP front end — can be watched in
// production without importing a client library the container does not have.
//
// Hot-path cost model: a Counter.Add is one atomic add; a Histogram.Observe
// is one binary search over a small bucket slice plus two atomic adds; Func
// instruments cost nothing until scrape time, when their callback is
// evaluated once. Nothing in this package allocates after registration, so
// instrumented inner loops keep their 0 allocs/op contracts.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names as emitted in `# TYPE` lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotone.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper bounds
// in ascending order; an implicit +Inf bucket catches the tail. Observations
// and exposition are safe for concurrent use; a scrape may observe a sample
// in the bucket counts before it lands in the sum (or vice versa), which
// Prometheus semantics tolerate — each series is individually monotone.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is +Inf
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the +Inf bucket is the fallback.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns the q-quantile (0 < q <= 1) estimated from the bucket
// counts by linear interpolation within the chosen bucket, the same estimate
// Prometheus's histogram_quantile computes. It returns NaN on an empty
// histogram; samples in the +Inf bucket clamp to the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return bucketQuantile(q, h.bounds, counts, total)
}

// bucketQuantile interpolates the q-quantile from per-bucket (non-cumulative)
// counts. Shared with the scrape-side parser, which reconstructs quantiles
// from a /metrics snapshot.
func bucketQuantile(q float64, bounds []float64, counts []int64, total int64) float64 {
	if total == 0 || q <= 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) { // +Inf bucket: clamp to the largest finite bound
			if len(bounds) == 0 {
				return math.NaN()
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		inBucket := float64(c)
		if inBucket == 0 {
			return bounds[i]
		}
		posInBucket := rank - float64(cum-c)
		return lo + (bounds[i]-lo)*(posInBucket/inBucket)
	}
	return math.NaN()
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at start
// with the given growth factor — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// series is one labeled instance inside a family.
type series struct {
	labels string // pre-rendered `{k="v",...}` suffix ("" when unlabeled)

	counter *Counter
	hist    *Histogram
	cfn     func() int64   // counter-valued callback
	gfn     func() float64 // gauge-valued callback
}

// family groups every series sharing a metric name.
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only: shared bounds
	series          []*series // registration order
	byLabels        map[string]*series
}

// Registry holds metric families and renders them in text format. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var nameRe = func(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) familyFor(name, help, typ string, buckets []float64) *family {
	if !nameRe(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets,
			byLabels: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// renderLabels turns alternating k,v pairs into a sorted, escaped `{...}`
// suffix. Panics on odd-length pairs or invalid label names.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label name/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !nameRe(kv[i]) || strings.Contains(kv[i], ":") {
			panic(fmt.Sprintf("metrics: invalid label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the text-format label value escapes: backslash, double
// quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the text-format HELP escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func (f *family) seriesFor(labels []string) (*series, bool) {
	ls := renderLabels(labels)
	if s, ok := f.byLabels[ls]; ok {
		return s, true
	}
	s := &series{labels: ls}
	f.byLabels[ls] = s
	f.series = append(f.series, s)
	return s, false
}

// Counter returns the counter named name with the given labels, registering
// it on first use. Repeated calls with the same name and labels return the
// same counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, TypeCounter, nil)
	s, existed := f.seriesFor(labels)
	if !existed {
		s.counter = &Counter{}
	}
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %s%s already registered as a callback", name, s.labels))
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomic
// counters (store, chaos injector). fn must be monotone and safe to call
// concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, TypeCounter, nil)
	s, existed := f.seriesFor(labels)
	if existed {
		panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, s.labels))
	}
	s.cfn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, TypeGauge, nil)
	s, existed := f.seriesFor(labels)
	if existed {
		panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, s.labels))
	}
	s.gfn = fn
}

// Histogram returns the histogram named name with the given labels and
// bucket upper bounds (ascending, finite), registering it on first use.
// Every series of one family shares the first registration's buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	for i, b := range buckets {
		if math.IsInf(b, 0) || math.IsNaN(b) || (i > 0 && buckets[i-1] >= b) {
			panic(fmt.Sprintf("metrics: %s: buckets must be finite and strictly ascending", name))
		}
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: %s: histogram needs at least one bucket", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, TypeHistogram, buckets)
	s, existed := f.seriesFor(labels)
	if !existed {
		bounds := f.buckets
		h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		s.hist = h
	}
	return s.hist
}

// WritePrometheus renders every registered family in Prometheus text format 0.0.4.
// Families appear in registration order, series in registration order within
// a family, so diffs between scrapes are stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family list and, by copying each family, its series list:
	// registration appends to both. Instrument reads are atomic and need no
	// lock.
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = *f
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.cfn != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.cfn())
			case s.gfn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gfn()))
			case s.hist != nil:
				writeHistogram(&b, f.name, s)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative buckets with an
// extra `le` label, then `_sum` and `_count`. The bucket counts are read
// low-to-high after the count, so the cumulative series stays monotone even
// against concurrent Observes.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	count := h.Count()
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(injectLE(s.labels, formatFloat(bound)))
		fmt.Fprintf(b, " %d\n", cum)
	}
	if cum > count {
		count = cum // late sample: keep +Inf >= every finite bucket
	}
	b.WriteString(name)
	b.WriteString("_bucket")
	b.WriteString(injectLE(s.labels, "+Inf"))
	fmt.Fprintf(b, " %d\n", count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, count)
}

// injectLE merges the `le` bucket label into a pre-rendered label suffix.
func injectLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way the text format expects: shortest
// round-trip form, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in text format —
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The client went away mid-scrape; nothing useful to do.
			return
		}
	})
}
