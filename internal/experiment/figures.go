package experiment

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/noise"
)

// Options parameterizes the figure and table reproductions. Zero values are
// replaced by paper defaults scaled to a single machine; raise Shots to
// approach the paper's cluster-scale statistics.
type Options struct {
	// Shots per data point. Default 1000.
	Shots int
	// Seed for reproducibility. Default 2023 (the MICRO year).
	Seed uint64
	// Workers for shot parallelism; 0 = GOMAXPROCS.
	Workers int
	// P is the physical error rate. Default 1e-3.
	P float64
	// Distances for distance sweeps. Default {3, 5, 7, 9, 11}.
	Distances []int
	// Cycles of QEC per experiment. Default 10.
	Cycles int
	// Distance for single-distance figures. Defaults to the figure's paper
	// value (7 for Figures 5/6, 11 for Figures 15/16/18/21).
	Distance int
	// Transport overrides the leakage transport model.
	Transport noise.TransportModel
	// Protocol selects SWAP LRCs or DQLR.
	Protocol circuit.Protocol
	// Profile, when non-nil, runs every data point on a device profile from
	// this source: generator specs re-instantiate per swept distance, file
	// specs require their calibrated distance to match. The heterogeneity
	// sweep ignores it (it generates its own hotspot profiles).
	Profile *device.Spec
	// HotspotQubits and HotspotFactors parameterize the heterogeneity sweep
	// (defaults: 3 hotspot qubits, factors 1..10).
	HotspotQubits  int
	HotspotFactors []float64
	// Runner, when non-nil, replaces direct experiment.Run calls for every
	// data point of every figure sweep. cmd/leakage installs a store-backed
	// runner here so warm-cache sweeps are served from persisted tallies and
	// adaptive-precision runs extend them.
	Runner func(Config) Result
}

// run executes one data point through the configured Runner (store-backed
// when set) or directly.
func (o Options) run(cfg Config) Result {
	if o.Runner != nil {
		return o.Runner(cfg)
	}
	return Run(cfg)
}

func (o Options) filled(defaultDistance int) Options {
	if o.Shots == 0 {
		o.Shots = 1000
	}
	if o.Seed == 0 {
		o.Seed = 2023
	}
	if o.P == 0 {
		o.P = 1e-3
	}
	if len(o.Distances) == 0 {
		o.Distances = []int{3, 5, 7, 9, 11}
	}
	if o.Cycles == 0 {
		o.Cycles = 10
	}
	if o.Distance == 0 {
		o.Distance = defaultDistance
	}
	return o
}

func (o Options) config(d, cycles int, k core.Kind) Config {
	np := noise.Standard(o.P).WithTransport(o.Transport)
	cfg := Config{
		Distance: d,
		Cycles:   cycles,
		P:        o.P,
		Noise:    &np,
		Shots:    o.Shots,
		Seed:     o.Seed,
		Policy:   k,
		Protocol: o.Protocol,
		Workers:  o.Workers,
	}
	if o.Profile != nil {
		prof, err := o.Profile.For(d, o.Transport)
		if err != nil {
			panic(fmt.Sprintf("experiment: profile %s: %v", o.Profile, err))
		}
		cfg.Profile = prof
	}
	return cfg
}

// ------------------------------------------------------------- LER/cycle --

// CycleSeries is a logical-error-rate-versus-QEC-cycle dataset (Figures
// 1(c), 2(c) and the bottom half of Figure 6).
type CycleSeries struct {
	Title    string
	Distance int
	Cycles   []int
	Names    []string
	LER      [][]float64 // [series][cycle]
}

// String renders the series as an aligned table.
func (c *CycleSeries) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (d=%d)\n", c.Title, c.Distance)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "cycle")
	for _, n := range c.Names {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	for i, cy := range c.Cycles {
		fmt.Fprintf(w, "%d", cy)
		for s := range c.Names {
			fmt.Fprintf(w, "\t%.2e", c.LER[s][i])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

func (o Options) cycleSweep(title string, d int, kinds []core.Kind, names []string,
	mutate func(i int, cfg *Config)) *CycleSeries {

	cs := &CycleSeries{Title: title, Distance: d, Names: names}
	for cy := 1; cy <= o.Cycles; cy++ {
		cs.Cycles = append(cs.Cycles, cy)
	}
	cs.LER = make([][]float64, len(kinds))
	for i, k := range kinds {
		cs.LER[i] = make([]float64, len(cs.Cycles))
		for j, cy := range cs.Cycles {
			cfg := o.config(d, cy, k)
			if mutate != nil {
				mutate(i, &cfg)
			}
			cs.LER[i][j] = o.run(cfg).LER
		}
	}
	return cs
}

// Figure1c reproduces Figure 1(c): LER over 1..Cycles QEC cycles without
// LRCs, with Always-LRCs, and with idealized LRC scheduling at d=7.
func Figure1c(o Options) *CycleSeries {
	o = o.filled(7)
	return o.cycleSweep("Figure 1(c): LER per QEC cycle", o.Distance,
		[]core.Kind{core.PolicyNone, core.PolicyAlways, core.PolicyOptimal},
		[]string{"No-LRCs", "Always-LRCs", "Optimal"}, nil)
}

// Figure2c reproduces Figure 2(c): LER per QEC cycle with and without
// leakage errors (no LRCs in either case) at d=7.
func Figure2c(o Options) *CycleSeries {
	o = o.filled(7)
	return o.cycleSweep("Figure 2(c): LER with vs without leakage", o.Distance,
		[]core.Kind{core.PolicyNone, core.PolicyNone},
		[]string{"No Leakage", "With Leakage"},
		func(i int, cfg *Config) {
			if i == 0 {
				np := noise.WithoutLeakage(o.P)
				cfg.Noise = &np
				// The no-leakage baseline is the uniform model by
				// definition; Profile would take precedence over Noise and
				// re-enable leakage.
				cfg.Profile = nil
			}
		})
}

// --------------------------------------------------------------- LPR/round --

// RoundSeries is a leakage-population-ratio-versus-round dataset (Figures 5,
// 6-top, 15, 18 and 21).
type RoundSeries struct {
	Title    string
	Distance int
	Names    []string
	// LPR[series][round] is the mean leakage population ratio at the end of
	// each syndrome extraction round.
	LPR [][]float64
	// Data and Parity split the first series by qubit type when non-nil
	// (Figure 5).
	Data, Parity []float64
}

// String renders every tenth round and always the last one.
func (r *RoundSeries) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (d=%d)\n", r.Title, r.Distance)
	if len(r.LPR) == 0 || len(r.LPR[0]) == 0 {
		b.WriteString("(no rounds)\n")
		return b.String()
	}
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "round")
	for _, n := range r.Names {
		fmt.Fprintf(w, "\t%s", n)
	}
	if r.Data != nil {
		fmt.Fprint(w, "\tdata\tparity")
	}
	fmt.Fprintln(w)
	rounds := len(r.LPR[0])
	step := rounds / 10
	if step == 0 {
		step = 1
	}
	row := func(i int) {
		fmt.Fprintf(w, "%d", i+1)
		for s := range r.Names {
			fmt.Fprintf(w, "\t%.1f", r.LPR[s][i]*1e4)
		}
		if r.Data != nil {
			fmt.Fprintf(w, "\t%.1f\t%.1f", r.Data[i]*1e4, r.Parity[i]*1e4)
		}
		fmt.Fprintln(w)
	}
	for i := 0; i < rounds; i += step {
		row(i)
	}
	// The stride only lands on the final round when step divides it; emit it
	// explicitly otherwise so the series' endpoint is always visible.
	if (rounds-1)%step != 0 {
		row(rounds - 1)
	}
	w.Flush()
	b.WriteString("(LPR in units of 1e-4)\n")
	return b.String()
}

// Figure5 reproduces Figure 5: the LPR of Always-LRC scheduling over 10 QEC
// cycles at d=7, split into data and parity qubits.
func Figure5(o Options) *RoundSeries {
	o = o.filled(7)
	res := o.run(o.config(o.Distance, o.Cycles, core.PolicyAlways))
	return &RoundSeries{
		Title:    "Figure 5: LPR under Always-LRCs",
		Distance: o.Distance,
		Names:    []string{"Total"},
		LPR:      [][]float64{res.LPRTotal},
		Data:     res.LPRData,
		Parity:   res.LPRParity,
	}
}

// lprSweep runs the given policies and collects their LPR series.
func (o Options) lprSweep(title string, d int, kinds []core.Kind) *RoundSeries {
	rs := &RoundSeries{Title: title, Distance: d}
	layoutNames(o, kinds, rs)
	for _, k := range kinds {
		res := o.run(o.config(d, o.Cycles, k))
		rs.LPR = append(rs.LPR, res.LPRTotal)
	}
	return rs
}

func layoutNames(o Options, kinds []core.Kind, rs *RoundSeries) {
	for _, k := range kinds {
		name := k.String()
		if o.Protocol == circuit.ProtocolDQLR {
			switch k {
			case core.PolicyAlways:
				name = "DQLR"
			case core.PolicyEraser:
				name = "ERASER-DQLR"
			case core.PolicyEraserM:
				name = "ERASER+M-DQLR"
			case core.PolicyOptimal:
				name = "Optimal-DQLR"
			}
		}
		rs.Names = append(rs.Names, name)
	}
}

// Figure6 reproduces Figure 6: LPR per round (top) and LER per cycle
// (bottom) for Always-LRCs versus idealized scheduling at d=7.
func Figure6(o Options) (*RoundSeries, *CycleSeries) {
	o = o.filled(7)
	lpr := o.lprSweep("Figure 6 (top): LPR, Always vs Optimal", o.Distance,
		[]core.Kind{core.PolicyOptimal, core.PolicyAlways})
	ler := o.cycleSweep("Figure 6 (bottom): LER, Always vs Optimal", o.Distance,
		[]core.Kind{core.PolicyOptimal, core.PolicyAlways},
		[]string{"Optimal", "Always-LRCs"}, nil)
	return lpr, ler
}

// Figure15 reproduces Figure 15 (and, with TransportExchange, Figure 18;
// with ProtocolDQLR, Figure 21): LPR per round for the four policies at
// d=11.
func Figure15(o Options) *RoundSeries {
	o = o.filled(11)
	return o.lprSweep("LPR per round, four policies", o.Distance,
		[]core.Kind{core.PolicyEraser, core.PolicyAlways, core.PolicyEraserM, core.PolicyOptimal})
}

// ---------------------------------------------------------- LER/distance --

// DistanceSweep is a logical-error-rate-versus-code-distance dataset
// (Figures 14, 17 and 20).
type DistanceSweep struct {
	Title     string
	P         float64
	Distances []int
	Names     []string
	LER       [][]float64 // [policy][distance]
	LERLow    [][]float64
	LERHigh   [][]float64
}

// String renders the sweep with 95% confidence intervals.
func (s *DistanceSweep) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (p=%.0e)\n", s.Title, s.P)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "d")
	for _, n := range s.Names {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	for i, d := range s.Distances {
		fmt.Fprintf(w, "%d", d)
		for p := range s.Names {
			fmt.Fprintf(w, "\t%.2e [%.1e,%.1e]", s.LER[p][i], s.LERLow[p][i], s.LERHigh[p][i])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// Bound says what a Ratio's X is.
type Bound uint8

const (
	// Exact: X is the ratio of the two point LERs.
	Exact Bound = iota
	// AtLeast: the denominator series had no logical errors, so X is the
	// lower bound LER_a / LERHigh_b.
	AtLeast
	// AtMost: the numerator series had no logical errors, so X is the upper
	// bound LERHigh_a / LER_b.
	AtMost
	// Unresolved: neither series had a logical error, so there is no ratio
	// and X is 0.
	Unresolved
)

// Ratio is an LER improvement factor. A series with no logical errors has a
// point LER of 0 but a positive Wilson upper bound, so a ratio involving it
// is a bound rather than 0 or infinite.
type Ratio struct {
	X     float64
	Bound Bound
}

// String renders the ratio as "2.3x", "≥ 2.3x", "≤ 0.4x" or "unresolved".
func (r Ratio) String() string {
	switch r.Bound {
	case AtLeast:
		return fmt.Sprintf("≥ %.1fx", r.X)
	case AtMost:
		return fmt.Sprintf("≤ %.1fx", r.X)
	case Unresolved:
		return "unresolved"
	}
	return fmt.Sprintf("%.1fx", r.X)
}

// Improvement returns the ratio of series a's LER to series b's at each
// distance (used for the "ERASER improves LER by up to 4.3x" summaries). At
// a distance where one series had no logical errors the ratio is a bound
// through that series' Wilson upper bound; where neither had any, it is
// Unresolved.
func (s *DistanceSweep) Improvement(a, b int) []Ratio {
	out := make([]Ratio, len(s.Distances))
	for i := range s.Distances {
		la, lb := s.LER[a][i], s.LER[b][i]
		switch {
		case la > 0 && lb > 0:
			out[i] = Ratio{la / lb, Exact}
		case la > 0 && s.LERHigh[b][i] > 0:
			out[i] = Ratio{la / s.LERHigh[b][i], AtLeast}
		case lb > 0 && s.LERHigh[a][i] > 0:
			out[i] = Ratio{s.LERHigh[a][i] / lb, AtMost}
		default:
			out[i] = Ratio{0, Unresolved}
		}
	}
	return out
}

// MeanMax returns the mean and the maximum of the resolved ratios in rs.
// Each is a lower bound if some of those ratios are and none is an upper
// bound, and the reverse; it is Unresolved if rs mixes both kinds of bound
// or resolves nowhere.
func MeanMax(rs []Ratio) (mean, max Ratio) {
	n := 0
	var lower, upper bool
	for _, r := range rs {
		if r.Bound == Unresolved {
			continue
		}
		mean.X += r.X
		max.X = math.Max(max.X, r.X)
		n++
		lower = lower || r.Bound == AtLeast
		upper = upper || r.Bound == AtMost
	}
	switch {
	case n == 0 || lower && upper:
		return Ratio{0, Unresolved}, Ratio{0, Unresolved}
	case lower:
		mean.Bound, max.Bound = AtLeast, AtLeast
	case upper:
		mean.Bound, max.Bound = AtMost, AtMost
	}
	mean.X /= float64(n)
	return mean, max
}

// Figure14 reproduces Figure 14 (and, with overrides, Figures 17 and 20):
// LER after 10 QEC cycles versus code distance for Always-LRCs, ERASER,
// ERASER+M and Optimal scheduling.
func Figure14(o Options) *DistanceSweep {
	o = o.filled(0)
	kinds := []core.Kind{core.PolicyEraser, core.PolicyAlways, core.PolicyEraserM, core.PolicyOptimal}
	rs := &RoundSeries{}
	layoutNames(o, kinds, rs)
	s := &DistanceSweep{
		Title:     "LER vs code distance",
		P:         o.P,
		Distances: o.Distances,
		Names:     rs.Names,
	}
	for _, k := range kinds {
		var ler, lo, hi []float64
		for _, d := range o.Distances {
			res := o.run(o.config(d, o.Cycles, k))
			ler = append(ler, res.LER)
			lo = append(lo, res.LERLow)
			hi = append(hi, res.LERHigh)
		}
		s.LER = append(s.LER, ler)
		s.LERLow = append(s.LERLow, lo)
		s.LERHigh = append(s.LERHigh, hi)
	}
	return s
}

// -------------------------------------------------- accuracy and Table 4 --

// AccuracyReport is the Figure 16 dataset: LRC speculation accuracy per
// distance (top) and the FPR/FNR decomposition at the largest distance
// (bottom), plus the Table 4 average LRC counts.
type AccuracyReport struct {
	Distances []int
	Names     []string
	// Accuracy[policy][distance] in percent.
	Accuracy [][]float64
	// FPR and FNR per policy at FNRDistance, in percent.
	FNRDistance int
	FPR, FNR    []float64
	// LRCsPerRound[policy][distance] (Table 4).
	LRCsPerRound [][]float64
}

// String renders the full report.
func (a *AccuracyReport) String() string {
	var b strings.Builder
	b.WriteString("Figure 16 (top): LRC speculation accuracy (%)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "d")
	for _, n := range a.Names {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	for i, d := range a.Distances {
		fmt.Fprintf(w, "%d", d)
		for p := range a.Names {
			fmt.Fprintf(w, "\t%.1f", a.Accuracy[p][i])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Fprintf(&b, "Figure 16 (bottom): FPR / FNR at d=%d (%%)\n", a.FNRDistance)
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tFPR\tFNR")
	for p, n := range a.Names {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\n", n, a.FPR[p], a.FNR[p])
	}
	w.Flush()
	b.WriteString("Table 4: average LRCs per round\n")
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "d")
	for _, n := range a.Names {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	for i, d := range a.Distances {
		fmt.Fprintf(w, "%d", d)
		for p := range a.Names {
			fmt.Fprintf(w, "\t%.3f", a.LRCsPerRound[p][i])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// Figure16Table4 reproduces Figure 16 and Table 4 in one sweep: speculation
// accuracy, FPR/FNR and average LRCs per round for all four policies.
func Figure16Table4(o Options) *AccuracyReport {
	o = o.filled(11)
	// The FPR/FNR decomposition is taken at o.Distance — but only distances
	// in o.Distances are actually swept. If the requested distance is not
	// among them, fall back to the largest swept distance (the paper reports
	// the bottom panel at its largest d) instead of silently leaving the
	// rates at zero; FNRDistance records which distance was used.
	fnrDistance := o.Distance
	swept := false
	largest := 0
	for _, d := range o.Distances {
		if d == fnrDistance {
			swept = true
		}
		if d > largest {
			largest = d
		}
	}
	if !swept {
		fnrDistance = largest
	}
	kinds := []core.Kind{core.PolicyAlways, core.PolicyEraser, core.PolicyEraserM, core.PolicyOptimal}
	rep := &AccuracyReport{
		Distances:   o.Distances,
		Names:       []string{"Always-LRCs", "ERASER", "ERASER+M", "Optimal"},
		FNRDistance: fnrDistance,
	}
	for _, k := range kinds {
		var acc, lrcs []float64
		var fpr, fnr float64
		for _, d := range o.Distances {
			res := o.run(o.config(d, o.Cycles, k))
			acc = append(acc, 100*res.Accuracy())
			lrcs = append(lrcs, res.LRCsPerRound)
			if d == fnrDistance {
				fpr, fnr = 100*res.FPR(), 100*res.FNR()
			}
		}
		rep.Accuracy = append(rep.Accuracy, acc)
		rep.LRCsPerRound = append(rep.LRCsPerRound, lrcs)
		rep.FPR = append(rep.FPR, fpr)
		rep.FNR = append(rep.FNR, fnr)
	}
	return rep
}
