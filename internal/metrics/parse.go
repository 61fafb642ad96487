package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed series value: a metric name, its sorted label
// rendering (the same canonical form the registry emits), and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Snapshot is a parsed /metrics scrape, indexed for the lookups scrape
// clients (cmd/leakwatch, examples/metricswatch) and the conformance tests
// need.
type Snapshot struct {
	// Samples holds every value line in file order.
	Samples []Sample
	// Help and Type record the `# HELP` / `# TYPE` headers by family name.
	Help map[string]string
	Type map[string]string
}

// Value returns the value of the series with the given name whose labels
// include every given k,v pair (alternating), and whether it was present.
func (s *Snapshot) Value(name string, kv ...string) (float64, bool) {
	if len(kv)%2 != 0 {
		panic("metrics: odd label name/value list")
	}
next:
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		for i := 0; i < len(kv); i += 2 {
			if sm.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		return sm.Value, true
	}
	return 0, false
}

// Quantile estimates the q-quantile of the histogram family named name
// (without the _bucket suffix) from its cumulative bucket samples, matching
// Histogram.Quantile's interpolation. Extra label constraints select one
// series of a labeled family. It returns NaN when the family is absent or
// empty.
func (s *Snapshot) Quantile(name string, q float64, kv ...string) float64 {
	type bkt struct {
		le  float64
		cum float64
	}
	var bkts []bkt
next:
	for _, sm := range s.Samples {
		if sm.Name != name+"_bucket" {
			continue
		}
		for i := 0; i < len(kv); i += 2 {
			if sm.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		le, err := parseFloat(sm.Labels["le"])
		if err != nil {
			continue
		}
		bkts = append(bkts, bkt{le, sm.Value})
	}
	if len(bkts) == 0 {
		return math.NaN()
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	bounds := make([]float64, 0, len(bkts)-1)
	counts := make([]int64, 0, len(bkts))
	var prev float64
	var total int64
	for _, b := range bkts {
		if !math.IsInf(b.le, 1) {
			bounds = append(bounds, b.le)
		}
		c := int64(b.cum - prev)
		counts = append(counts, c)
		total += c
		prev = b.cum
	}
	return bucketQuantile(q, bounds, counts, total)
}

// Sub returns a new snapshot whose sample values are s minus prev, matching
// series by name and full label set (series absent from prev keep their
// value). Counter families — histogram buckets included, since those are
// cumulative counters per `le` — subtract cleanly, which is how a scrape
// client isolates "what happened since the first scrape" from a server's
// lifetime totals.
// Gauge families are not meaningfully subtractable; callers should read
// gauges from the live snapshot instead.
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	prevVals := make(map[string]float64, len(prev.Samples))
	for _, sm := range prev.Samples {
		prevVals[seriesKey(sm)] = sm.Value
	}
	out := &Snapshot{Help: s.Help, Type: s.Type, Samples: make([]Sample, len(s.Samples))}
	for i, sm := range s.Samples {
		sm.Value -= prevVals[seriesKey(sm)]
		out.Samples[i] = sm
	}
	return out
}

func seriesKey(sm Sample) string {
	keys := make([]string, 0, len(sm.Labels))
	for k := range sm.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(sm.Name)
	for _, k := range keys {
		b.WriteByte(0)
		b.WriteString(k)
		b.WriteByte(1)
		b.WriteString(sm.Labels[k])
	}
	return b.String()
}

// ParseText parses a Prometheus text-format 0.0.4 exposition. It is strict
// about everything this repo's registry emits — the conformance test feeds
// the registry's own output through it — and returns an error on any line it
// cannot interpret.
func ParseText(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Help: make(map[string]string), Type: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name, rest, ok := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if !ok || !nameRe(name) {
				return nil, fmt.Errorf("metrics: line %d: malformed HELP", lineNo)
			}
			snap.Help[name] = unescapeHelp(rest)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			name, typ, ok := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if !ok || !nameRe(name) {
				return nil, fmt.Errorf("metrics: line %d: malformed TYPE", lineNo)
			}
			switch typ {
			case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
			default:
				return nil, fmt.Errorf("metrics: line %d: unknown type %q", lineNo, typ)
			}
			snap.Type[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		snap.Samples = append(snap.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return snap, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value on line %q", line)
	}
	s.Name = line[:i]
	if !nameRe(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		rest, err = parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
	}
	rest = strings.TrimSpace(rest)
	// The text format allows an optional timestamp after the value; the
	// registry never emits one, so a second field is an error here.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parseFloat(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a `{k="v",...}` block from the front of rest, filling
// into, and returns the remainder of the line.
func parseLabels(rest string, into map[string]string) (string, error) {
	rest = rest[1:] // consume '{'
	for {
		rest = strings.TrimLeft(rest, " ,")
		if rest == "" {
			return "", fmt.Errorf("unterminated label block")
		}
		if rest[0] == '}' {
			return rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return "", fmt.Errorf("label without '='")
		}
		name := rest[:eq]
		if !nameRe(name) || strings.Contains(name, ":") {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return "", fmt.Errorf("unquoted label value for %q", name)
		}
		val, rem, err := parseQuoted(rest)
		if err != nil {
			return "", fmt.Errorf("label %q: %w", name, err)
		}
		into[name] = val
		rest = rem
	}
}

// parseQuoted consumes a leading double-quoted, escape-aware string and
// returns its unescaped value plus the remainder.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated string")
}

func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
