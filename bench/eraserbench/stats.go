package main

import (
	"math"
	"sort"
	"time"
)

// Metric is one named measurement: Value is what the benchmark reports
// (the best or the median rep or probe, a pooled or best-rep percentile, or
// a single reading), Min and Max are the extremes of the per-rep readings
// behind it — the run's noise floor — and N is the number of samples Value
// was taken from.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	// Reps holds the per-rep (or per-probe) readings, in run order.
	Reps []float64 `json:"reps,omitempty"`
}

// medianOf reports the median of xs with its extremes.
func medianOf(unit string, xs []float64) Metric {
	if len(xs) == 0 {
		return Metric{Unit: unit}
	}
	s := sorted(xs)
	return Metric{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s), Reps: xs}
}

// bestOf reports the best of the per-rep readings xs: the highest when
// higher is better, else the lowest. Interference from other tenants of a
// shared host only ever slows a rep down, so the least disturbed rep is the
// steadiest reading of what the code itself costs.
func bestOf(unit string, xs []float64, higher bool) Metric {
	m := medianOf(unit, xs)
	m.Value = m.Min
	if higher {
		m.Value = m.Max
	}
	return m
}

// bestPercentileOf reports the lowest per-rep q-quantile of a latency: like
// bestOf, the rep the host disturbed least.
func bestPercentileOf(unit string, q float64, reps [][]float64) Metric {
	m := percentileOf(unit, q, reps)
	m.Value = m.Min
	return m
}

// percentileOf reports the q-quantile of the pooled samples, with the same
// quantile of each rep as Min and Max.
func percentileOf(unit string, q float64, reps [][]float64) Metric {
	var pool, per []float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range reps {
		if len(r) == 0 {
			continue
		}
		pool = append(pool, r...)
		v := percentile(sorted(r), q)
		per = append(per, v)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if len(pool) == 0 {
		return Metric{Unit: unit}
	}
	return Metric{Value: percentile(sorted(pool), q), Unit: unit, Min: lo, Max: hi, N: len(pool), Reps: per}
}

// single reports one reading: a count, or a time from the traced pass.
func single(unit string, v float64) Metric {
	return Metric{Value: v, Unit: unit, Min: v, Max: v, N: 1}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of an ascending sample: the
// smallest element with at least ⌈q·n⌉ samples at or below it.
func percentile(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// twoProportionZ is the pooled two-proportion z statistic of k1/n1 against
// k2/n2; 0 when both proportions are 0 or 1.
func twoProportionZ(k1, n1, k2, n2 int) float64 {
	p := float64(k1+k2) / float64(n1+n2)
	se := math.Sqrt(p * (1 - p) * (1/float64(n1) + 1/float64(n2)))
	if se == 0 {
		return 0
	}
	return (float64(k1)/float64(n1) - float64(k2)/float64(n2)) / se
}
