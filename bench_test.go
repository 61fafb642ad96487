// Package repro_test hosts the benchmark harness: one benchmark per table
// and figure of the ERASER paper (see DESIGN.md's experiment index), plus
// ablation benchmarks for the design choices the paper calls out and
// micro-benchmarks of the substrates. Benchmarks run scaled-down shot counts
// so `go test -bench=. -benchmem` finishes on a laptop; cmd/leakage runs the
// full-scale sweeps. Key shape metrics are attached with b.ReportMetric so
// the bench output doubles as a compact reproduction summary.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/analytic"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/matching"
	"repro/internal/noise"
	"repro/internal/qudit"
	"repro/internal/rtl"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sim/batch"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/surfacecode"
)

// benchOpts returns laptop-scale sweep options shared by figure benchmarks.
func benchOpts() experiment.Options {
	return experiment.Options{
		Shots:     120,
		Seed:      2023,
		P:         1e-3,
		Distances: []int{3, 5},
		Cycles:    4,
		Distance:  5,
	}
}

// --------------------------------------------------- analytic (Eqs, Table 2)

func BenchmarkEquations12(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += analytic.PDataLeaksGivenParityLeaked(analytic.PLeakCNOT, analytic.PLeakTransport)
		sink += analytic.PParityLeaksGivenDataLeaked(analytic.PLeakCNOT, analytic.PLeakTransport)
	}
	_ = sink
	b.ReportMetric(analytic.PDataLeaksGivenParityLeaked(analytic.PLeakCNOT, analytic.PLeakTransport), "eq1")
	b.ReportMetric(analytic.PParityLeaksGivenDataLeaked(analytic.PLeakCNOT, analytic.PLeakTransport), "eq2")
}

func BenchmarkTable2(b *testing.B) {
	var sink []float64
	for i := 0; i < b.N; i++ {
		sink = analytic.InvisibilityTable(3)
	}
	b.ReportMetric(sink[0], "pct_visible_now")
}

// ------------------------------------------------------- Figures 1(c), 2(c)

func BenchmarkFigure1c(b *testing.B) {
	o := benchOpts()
	o.Distance = 5
	o.Cycles = 3
	o.Shots = 80
	var cs *experiment.CycleSeries
	for i := 0; i < b.N; i++ {
		cs = experiment.Figure1c(o)
	}
	last := len(cs.Cycles) - 1
	b.ReportMetric(cs.LER[0][last], "LER_noLRC")
	b.ReportMetric(cs.LER[1][last], "LER_always")
	b.ReportMetric(cs.LER[2][last], "LER_optimal")
}

func BenchmarkFigure2c(b *testing.B) {
	o := benchOpts()
	o.Distance = 5
	o.Cycles = 3
	o.Shots = 80
	var cs *experiment.CycleSeries
	for i := 0; i < b.N; i++ {
		cs = experiment.Figure2c(o)
	}
	last := len(cs.Cycles) - 1
	b.ReportMetric(stats.Ratio(cs.LER[1][last], cs.LER[0][last]), "leakage_penalty_x")
}

// --------------------------------------------------------- Figures 5 and 6

func BenchmarkFigure5(b *testing.B) {
	o := benchOpts()
	var rs *experiment.RoundSeries
	for i := 0; i < b.N; i++ {
		rs = experiment.Figure5(o)
	}
	b.ReportMetric(stats.Max(rs.LPR[0])*1e4, "peak_LPR_1e-4")
}

func BenchmarkFigure6(b *testing.B) {
	o := benchOpts()
	o.Cycles = 3
	o.Shots = 80
	var lpr *experiment.RoundSeries
	for i := 0; i < b.N; i++ {
		lpr, _ = experiment.Figure6(o)
	}
	b.ReportMetric(stats.Ratio(stats.Mean(lpr.LPR[1]), stats.Mean(lpr.LPR[0])), "always_over_optimal_LPR")
}

// ------------------------------------------------------------- Figure 8

func BenchmarkFigure8(b *testing.B) {
	var pts []qudit.StudyPoint
	for i := 0; i < b.N; i++ {
		pts = qudit.Study(qudit.StudyParams{})
	}
	b.ReportMetric(pts[6].Leak[4], "parity_leak_at_A")
	b.ReportMetric(pts[len(pts)-1].PCorrect, "p_correct_at_C")
}

// ------------------------------------------------- Figures 14-16, Table 4

func BenchmarkFigure14(b *testing.B) {
	o := benchOpts()
	var s *experiment.DistanceSweep
	for i := 0; i < b.N; i++ {
		s = experiment.Figure14(o)
	}
	reportImprovement(b, s.Improvement(1, 0), "eraser_improvement_x") // Always / ERASER
	reportImprovement(b, s.Improvement(1, 2), "eraserM_improvement_x")
}

// reportImprovement reports the largest of a sweep's improvement ratios as
// unit. A bound (a distance where a series had no logical errors) is
// reported as its value and logged as a bound; an unresolved sweep reports
// nothing.
func reportImprovement(b *testing.B, rs []experiment.Ratio, unit string) {
	b.Helper()
	_, max := experiment.MeanMax(rs)
	switch max.Bound {
	case experiment.Unresolved:
		b.Logf("%s: unresolved, no logical errors in either series", unit)
		return
	case experiment.AtLeast, experiment.AtMost:
		b.Logf("%s: %s is a bound", unit, max)
	}
	b.ReportMetric(max.X, unit)
}

func BenchmarkFigure14LowP(b *testing.B) {
	o := benchOpts()
	o.P = 1e-4
	o.Shots = 150
	var s *experiment.DistanceSweep
	for i := 0; i < b.N; i++ {
		s = experiment.Figure14(o)
	}
	reportImprovement(b, s.Improvement(1, 0), "eraser_improvement_x")
}

func BenchmarkFigure15(b *testing.B) {
	o := benchOpts()
	o.Distance = 5 // scaled from the paper's d=11
	var rs *experiment.RoundSeries
	for i := 0; i < b.N; i++ {
		rs = experiment.Figure15(o)
	}
	b.ReportMetric(stats.Mean(rs.LPR[1])*1e4, "always_LPR_1e-4")
	b.ReportMetric(stats.Mean(rs.LPR[0])*1e4, "eraser_LPR_1e-4")
}

func BenchmarkFigure16Table4(b *testing.B) {
	o := benchOpts()
	o.Distance = 5
	var rep *experiment.AccuracyReport
	for i := 0; i < b.N; i++ {
		rep = experiment.Figure16Table4(o)
	}
	b.ReportMetric(rep.Accuracy[1][len(rep.Distances)-1], "eraser_accuracy_pct")
	b.ReportMetric(rep.FNR[1], "eraser_FNR_pct")
	b.ReportMetric(rep.FNR[2], "eraserM_FNR_pct")
	b.ReportMetric(rep.LRCsPerRound[0][len(rep.Distances)-1], "always_LRCs_per_round")
	b.ReportMetric(rep.LRCsPerRound[1][len(rep.Distances)-1], "eraser_LRCs_per_round")
}

// ----------------------------------------------------------------- Table 3

func BenchmarkTable3(b *testing.B) {
	var res rtl.Resources
	for i := 0; i < b.N; i++ {
		for _, d := range []int{3, 5, 7, 9, 11} {
			r, err := rtl.Estimate(d)
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
	}
	b.ReportMetric(res.LUTPercent, "d11_LUT_pct")
	b.ReportMetric(res.FFPercent, "d11_FF_pct")
	b.ReportMetric(res.LatencyNS, "d11_latency_ns")
}

func BenchmarkRTLGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rtl.Generate(9); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------- Appendix A.1 (Figures 17, 18)

func BenchmarkFigure17(b *testing.B) {
	o := benchOpts()
	o.Transport = noise.TransportExchange
	var s *experiment.DistanceSweep
	for i := 0; i < b.N; i++ {
		s = experiment.Figure14(o)
	}
	reportImprovement(b, s.Improvement(1, 0), "eraser_improvement_x")
}

func BenchmarkFigure18(b *testing.B) {
	o := benchOpts()
	o.Distance = 5
	o.Transport = noise.TransportExchange
	var rs *experiment.RoundSeries
	for i := 0; i < b.N; i++ {
		rs = experiment.Figure15(o)
	}
	b.ReportMetric(stats.Mean(rs.LPR[1])*1e4, "always_LPR_1e-4")
}

// ------------------------------------------- Appendix A.2 (Figures 20, 21)

func BenchmarkFigure20(b *testing.B) {
	o := benchOpts()
	o.Protocol = circuit.ProtocolDQLR
	o.Transport = noise.TransportExchange
	var s *experiment.DistanceSweep
	for i := 0; i < b.N; i++ {
		s = experiment.Figure14(o)
	}
	reportImprovement(b, s.Improvement(1, 0), "eraser_improvement_x")
}

func BenchmarkFigure21(b *testing.B) {
	o := benchOpts()
	o.Distance = 5
	o.Protocol = circuit.ProtocolDQLR
	o.Transport = noise.TransportExchange
	var rs *experiment.RoundSeries
	for i := 0; i < b.N; i++ {
		rs = experiment.Figure15(o)
	}
	b.ReportMetric(stats.Mean(rs.LPR[1])*1e4, "dqlr_LPR_1e-4")
	b.ReportMetric(stats.Mean(rs.LPR[0])*1e4, "eraser_dqlr_LPR_1e-4")
}

// ------------------------------------------------------------- Ablations

// runAblation measures the LER of a tuned ERASER variant on the scalar
// engine, the only one whose policy has tuning knobs.
func runAblation(b *testing.B, tune func(core.Policy)) float64 {
	b.Helper()
	res := experiment.RunScalar(experiment.Config{
		Distance: 5, Cycles: 4, P: 1e-3, Shots: 150, Seed: 31,
		Policy: core.PolicyEraser,
	}, tune)
	return res.LER
}

// BenchmarkAblationThreshold explores Insight #2: speculating at 1 flip
// (conservative, too many LRCs) or 3 flips (aggressive, leakage lingers)
// versus the paper's half-of-neighbors rule.
func BenchmarkAblationThreshold(b *testing.B) {
	var def, t1, t3 float64
	for i := 0; i < b.N; i++ {
		def = runAblation(b, nil)
		t1 = runAblation(b, func(p core.Policy) { p.(*core.Eraser).LSB().SetThreshold(1) })
		t3 = runAblation(b, func(p core.Policy) { p.(*core.Eraser).LSB().SetThreshold(3) })
	}
	b.ReportMetric(def, "LER_half_rule")
	b.ReportMetric(t1, "LER_threshold1")
	b.ReportMetric(t3, "LER_threshold3")
}

// BenchmarkAblationPUTT disables the parity-qubit cooldown.
func BenchmarkAblationPUTT(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = runAblation(b, nil)
		without = runAblation(b, func(p core.Policy) { p.(*core.Eraser).DLI().SetUsePUTT(false) })
	}
	b.ReportMetric(with, "LER_with_PUTT")
	b.ReportMetric(without, "LER_without_PUTT")
}

// BenchmarkAblationBackups disables the backup SWAP Lookup Table entries.
func BenchmarkAblationBackups(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = runAblation(b, nil)
		without = runAblation(b, func(p core.Policy) { p.(*core.Eraser).DLI().SetUseBackup(false) })
	}
	b.ReportMetric(with, "LER_with_backup")
	b.ReportMetric(without, "LER_without_backup")
}

// BenchmarkMemoryXShot exercises the memory-X pipeline.
func BenchmarkMemoryXShot(b *testing.B) {
	cfg := experiment.Config{Distance: 5, Cycles: 5, P: 1e-3, Shots: 1, Seed: 4,
		Policy: core.PolicyEraser, Basis: surfacecode.KindX, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		experiment.Run(cfg)
	}
}

// BenchmarkTable2Empirical measures the leakage-visibility distribution
// (the empirical Table 2).
func BenchmarkTable2Empirical(b *testing.B) {
	var v *experiment.VisibilityStats
	for i := 0; i < b.N; i++ {
		v = experiment.MeasureVisibility(5, 30, 60, 2e-3, 7, 3)
	}
	b.ReportMetric(v.Percent()[0], "pct_visible_round0")
}

// BenchmarkPostSelection measures the Section 2.4 post-processing baseline.
func BenchmarkPostSelection(b *testing.B) {
	var ps *experiment.PostSelection
	for i := 0; i < b.N; i++ {
		ps = experiment.RunPostSelection(experiment.Config{
			Distance: 5, Cycles: 4, P: 1e-3, Shots: 200, Seed: 9}, 2, 2)
	}
	b.ReportMetric(ps.LERAll(), "LER_all")
	b.ReportMetric(ps.LERKept(), "LER_kept")
	b.ReportMetric(ps.DiscardFraction(), "discard_fraction")
}

// BenchmarkAblationMatcher compares the exact and greedy matching engines on
// identical event sets.
func BenchmarkAblationMatcher(b *testing.B) {
	rng := stats.NewRNG(7, 7)
	const n = 14
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*10, rng.Float64()*10
	}
	inst := matching.Instance{N: n, Pair: make([]float64, n*n), Boundary: make([]float64, n)}
	for i := 0; i < n; i++ {
		inst.Boundary[i] = 3 + xs[i]/10
		for j := 0; j < n; j++ {
			inst.Pair[i*n+j] = math.Abs(xs[i]-xs[j]) + math.Abs(ys[i]-ys[j])
		}
	}
	var exact, refined matching.Result
	for i := 0; i < b.N; i++ {
		exact = matching.Exact(inst)
		refined = matching.Refine(inst, matching.Greedy(inst), 8)
	}
	b.ReportMetric(exact.Weight, "exact_weight")
	b.ReportMetric(refined.Weight, "refined_weight")
}

// ------------------------------------------------- heterogeneity robustness

// BenchmarkHeterogeneitySweep runs the device-heterogeneity robustness sweep
// at laptop scale: all five policies against hotspot profiles at a few
// factors. It doubles as the perf smoke for the site-indexed rate path — the
// whole sweep runs through the rate-class batch samplers and the
// profile-derived decoder priors.
func BenchmarkHeterogeneitySweep(b *testing.B) {
	o := benchOpts()
	o.Distance = 3
	o.Cycles = 2
	o.Shots = 96
	o.HotspotFactors = []float64{1, 4, 10}
	o.HotspotQubits = 2
	var s *experiment.HeterogeneitySweep
	for i := 0; i < b.N; i++ {
		s = experiment.Heterogeneity(o)
	}
	deg := s.Degradation()
	b.ReportMetric(deg[2], "eraser_degradation_x")
	b.ReportMetric(deg[1], "always_degradation_x")
	last := len(s.Factors) - 1
	b.ReportMetric(100*s.FNR[2][last], "eraser_FNR_pct_at_10x")
}

// BenchmarkBatchRoundD7Profile is BenchmarkBatchRoundD7Wide on a
// heterogeneous drift profile: every qubit and coupler in its own rate
// class, so it bounds the cost of per-site class lookups and of ~460 shared
// countdowns over ~1,800 geometric streams.
func BenchmarkBatchRoundD7Profile(b *testing.B) {
	l := surfacecode.MustNew(7)
	prof, err := device.Drift(7, 1e-3, 0.3, 11)
	if err != nil {
		b.Fatal(err)
	}
	rates, err := prof.Resolve(l)
	if err != nil {
		b.Fatal(err)
	}
	s := batch.NewWide(l, noise.Standard(1e-3), surfacecode.KindZ)
	s.UseRates(rates)
	var rngs [batch.BlockWords]*stats.RNG
	for w := range rngs {
		rngs[w] = stats.NewRNG(1, uint64(w))
	}
	s.Reset(rngs)
	builder := circuit.NewBuilder(l)
	ops := builder.Round(circuit.Plan{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRound(ops)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.BlockLanes), "ns/shot")
}

// ------------------------------------------------- batch fast path vs scalar

// BenchmarkBatchVsScalar pits the word-parallel batch simulator against the
// scalar per-shot simulator on a d=5 sweep covering all five policies: the
// static NoLRC/Always baselines on the shared-plan batch worker and the
// adaptive ERASER/ERASER+M/Optimal policies on the lane-masked worker.
// Workers is pinned to 1 so the ratio measures simulator throughput, not
// scheduling. The batch path must be >= 5x faster for static schedules and
// >= 4x for adaptive ones (see DESIGN.md).
func BenchmarkBatchVsScalar(b *testing.B) {
	base := experiment.Config{Distance: 5, Cycles: 4, P: 1e-3, Shots: 256,
		Seed: 7, Workers: 1}
	for _, pol := range []struct {
		name string
		kind core.Kind
	}{
		{"noLRC", core.PolicyNone},
		{"always", core.PolicyAlways},
		{"eraser", core.PolicyEraser},
		{"eraserM", core.PolicyEraserM},
		{"optimal", core.PolicyOptimal},
	} {
		cfg := base
		cfg.Policy = pol.kind
		b.Run(pol.name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiment.RunScalar(cfg, nil)
			}
		})
		b.Run(pol.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiment.Run(cfg)
			}
		})
	}
}

// BenchmarkBatchRoundD7Wide is BenchmarkSimRoundD7's batch counterpart: one
// static syndrome extraction round advancing 256 shots (4 64-lane units) at
// once on the shared countdowns. The CI allocation gate greps this
// benchmark's -benchmem column for 0 allocs/op — the hot loop must stay
// allocation-free.
func BenchmarkBatchRoundD7Wide(b *testing.B) {
	l := surfacecode.MustNew(7)
	s := batch.NewWide(l, noise.Standard(1e-3), surfacecode.KindZ)
	var rngs [batch.BlockWords]*stats.RNG
	for w := range rngs {
		rngs[w] = stats.NewRNG(1, uint64(w))
	}
	s.Reset(rngs)
	builder := circuit.NewBuilder(l)
	ops := builder.Round(circuit.Plan{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRound(ops)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.BlockLanes), "ns/shot")
}

// BenchmarkBatchBlockD7Wide times whole static blocks on the wide engine:
// Reset, the 49 rounds of a d=7, 7-cycle Always schedule and FinalRound, as
// the runner's static worker runs them. always-p1e-4 is uniform noise at the
// frame-simulation-bound point; always-drift-p1e-3 runs a drift profile,
// where every qubit and coupler has its own rate class. The same four RNGs
// serve every block and one block runs before the timer, so the CI
// allocation gate can hold both to 0 allocs/op.
func BenchmarkBatchBlockD7Wide(b *testing.B) {
	l := surfacecode.MustNew(7)
	drift, err := device.Drift(7, 1e-3, 0.3, 11)
	if err != nil {
		b.Fatal(err)
	}
	driftRates, err := drift.Resolve(l)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		p     float64
		rates *device.Rates
	}{
		{"always-p1e-4", 1e-4, nil},
		{"always-drift-p1e-3", 1e-3, driftRates},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := batch.NewWide(l, noise.Standard(bc.p), surfacecode.KindZ)
			s.UseRates(bc.rates)
			var rngs [batch.BlockWords]*stats.RNG
			for w := range rngs {
				rngs[w] = stats.NewRNG(1, uint64(w))
			}
			pol := core.NewPolicy(core.PolicyAlways, l, circuit.ProtocolSwap)
			builder := circuit.NewBuilder(l)
			rounds := experiment.Config{Distance: 7, Cycles: 7}.NumRounds()
			block := func() {
				s.Reset(rngs)
				pol.Reset()
				for r := 1; r <= rounds; r++ {
					s.RunRound(builder.Round(pol.PlanRound(r)))
				}
				s.FinalRound(builder.FinalMeasurement())
			}
			block()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.BlockLanes), "ns/shot")
		})
	}
}

// BenchmarkBatchMaskedRoundD7Wide measures the adaptive engine's substrate:
// one lane-masked round (plan merge + masked execution) over 256 lanes with
// a sparse spread of per-lane LRCs, every ninth lane scheduling one. One
// round before the timer grows the builder's buffers, so the CI allocation
// gate can hold the timed rounds to 0 allocs/op even at -benchtime 2x.
func BenchmarkBatchMaskedRoundD7Wide(b *testing.B) {
	l := surfacecode.MustNew(7)
	s := batch.NewWide(l, noise.Standard(1e-3), surfacecode.KindZ)
	var rngs [batch.BlockWords]*stats.RNG
	for w := range rngs {
		rngs[w] = stats.NewRNG(1, uint64(w))
	}
	s.Reset(rngs)
	builder := circuit.NewBuilder(l)
	plans := make([]circuit.Plan, batch.BlockLanes)
	for i := 0; i < batch.BlockLanes; i += 9 {
		q := (i * 7) % l.NumData
		plans[i] = circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
	}
	active := circuit.LaneMaskFor(batch.BlockLanes)
	s.RunRoundMasked(builder.MaskedRound(plans, active))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRoundMasked(builder.MaskedRound(plans, active))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.BlockLanes), "ns/shot")
}

// BenchmarkBuilderRoundD7 measures Round's build of a plan that carries no
// compiled sequence (the adaptive policies' plans on the scalar path): one
// warmed builder alternating plain copies of Always's dense and sparse d=7
// plans, each built afresh into the builder's buffer. Always's own plans
// are compiled, so a builder serves them without building. The CI
// allocation gate greps it for 0 allocs/op.
func BenchmarkBuilderRoundD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	pol := core.NewPolicy(core.PolicyAlways, l, circuit.ProtocolSwap)
	var plans [2]circuit.Plan
	for i, r := range []int{2, 3} {
		p := pol.PlanRound(r)
		plans[i] = circuit.Plan{LRCs: slices.Clone(p.LRCs), Protocol: p.Protocol, CondReturn: p.CondReturn}
	}
	builder := circuit.NewBuilder(l)
	for _, p := range plans {
		builder.Round(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.Round(plans[i&1])
	}
}

// recordEraserRounds runs blocks full 256-lane blocks of a d=7, 7-cycle
// ERASER memory experiment at physical error rate p from a fixed seed, the
// way the runner's batch worker runs them (core.LanePolicies planning,
// Builder.MaskedRound merging, the wide engine executing), and records every
// round: the lanes' plans (deep copies) and the detection-event planes
// Observe then read. Replaying the events into a freshly Reset planner, block
// by block, reproduces the recorded plans exactly.
func recordEraserRounds(p float64, blocks int) (plans [][]circuit.Plan, events [][]uint64) {
	l := surfacecode.MustNew(7)
	ws := batch.NewWide(l, noise.Standard(p), surfacecode.KindZ)
	lp := core.NewLanePolicies(core.PolicyEraser, l, circuit.ProtocolSwap, batch.BlockLanes)
	builder := circuit.NewBuilder(l)
	active := batch.BlockMask(batch.BlockLanes)
	rounds := experiment.Config{Distance: 7, Cycles: 7}.NumRounds()
	for blk := 0; blk < blocks; blk++ {
		var rngs [batch.BlockWords]*stats.RNG
		for w := range rngs {
			rngs[w] = stats.NewRNG(2023, uint64(blk*batch.BlockWords+w))
		}
		ws.Reset(rngs)
		lp.Reset()
		for r := 1; r <= rounds; r++ {
			ps := lp.PlanRound(r, active)
			kept := slices.Clone(ps)
			for i := range kept {
				kept[i].LRCs = slices.Clone(kept[i].LRCs)
			}
			plans = append(plans, kept)
			ev := ws.RunRoundMasked(builder.MaskedRound(ps, active))
			events = append(events, slices.Clone(ev))
			lp.Observe(core.LaneRoundInfo{Round: r, Active: active, Events: ev})
		}
	}
	return plans, events
}

// reportLRCDensity attaches the LRC density of recorded rounds: LRCs planned
// per 256-lane round, and the ops Builder.MaskedRound emits per round beyond
// the LRC-free skeleton.
func reportLRCDensity(b *testing.B, plans [][]circuit.Plan) {
	l := surfacecode.MustNew(7)
	builder := circuit.NewBuilder(l)
	skeleton := len(builder.Round(circuit.Plan{}))
	active := batch.BlockMask(batch.BlockLanes)
	lrcs, lrcOps := 0, 0
	for _, ps := range plans {
		for _, p := range ps {
			lrcs += len(p.LRCs)
		}
		lrcOps += len(builder.MaskedRound(ps, active)) - skeleton
	}
	b.ReportMetric(float64(lrcs)/float64(len(plans)), "lrcs/round")
	b.ReportMetric(float64(lrcOps)/float64(len(plans)), "lrc_ops/round")
}

// BenchmarkMaskedRoundBuildD7 times the adaptive round build alone:
// Builder.MaskedRound merging 256 lanes' plans into one masked d=7 round.
// The plans are the eraser-d7-p1e-4 workload's: recorded before the timer
// from 4 blocks x 49 rounds of a real p=1e-4 ERASER block loop, about 15
// LRCs and 84 LRC ops per round. (Independent event planes at the workload's
// 1/871 events per stabilizer-round feed the planner about a sixth of
// that, since real events cluster around leaked qubits.) Every recorded
// round is built once to grow the builder's buffers; the CI allocation gate
// greps this benchmark for 0 allocs/op.
func BenchmarkMaskedRoundBuildD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	plans, _ := recordEraserRounds(1e-4, 4)
	active := batch.BlockMask(batch.BlockLanes)
	builder := circuit.NewBuilder(l)
	for _, ps := range plans {
		builder.MaskedRound(ps, active)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.MaskedRound(plans[i%len(plans)], active)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.BlockLanes), "ns/shot")
	reportLRCDensity(b, plans)
}

// BenchmarkLanePoliciesD7 measures the bit-sliced ERASER planner in front of
// the wide engine: one round of PlanRound + Observe over 256 lanes at d=7,
// replaying the detection-event planes of the eraser-d7-p1e-3 workload,
// recorded before the timer from 4 blocks x 49 rounds of a real p=1e-3
// ERASER block loop (about 1/43 events per stabilizer-round, 170 LRCs and
// 297 LRC ops per round). The planner is Reset at each recorded block's
// first round, so it plans exactly what the recorded loop planned. One
// replay of every round runs before the timer, so the planner's LRC arena
// has reached its steady capacity; the CI allocation gate greps this
// benchmark for 0 allocs/op.
func BenchmarkLanePoliciesD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	plans, events := recordEraserRounds(1e-3, 4)
	rounds := experiment.Config{Distance: 7, Cycles: 7}.NumRounds()
	lp := core.NewLanePolicies(core.PolicyEraser, l, circuit.ProtocolSwap, batch.BlockLanes)
	active := batch.BlockMask(batch.BlockLanes)
	round := func(i int) {
		r := i%rounds + 1
		if r == 1 {
			lp.Reset()
		}
		lp.PlanRound(r, active)
		lp.Observe(core.LaneRoundInfo{Round: r, Active: active, Events: events[i%len(events)]})
	}
	for i := range events {
		round(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.BlockLanes), "ns/shot")
	reportLRCDensity(b, plans)
}

// ------------------------------------------------- result store warm vs cold

// BenchmarkStoreWarmVsCold measures the Figure 14 sweep served through the
// orchestration service: cold (fresh store, every unit simulated) versus
// warm (all points answered from merged tallies, zero units simulated). The
// warm path must be >= 50x faster (see DESIGN.md); in practice it is
// hash-lookup bound and lands orders of magnitude beyond that.
func BenchmarkStoreWarmVsCold(b *testing.B) {
	opts := func(sched *service.Scheduler) experiment.Options {
		o := benchOpts()
		o.Runner = sched.Runner(service.Precision{})
		return o
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := store.Open("")
			if err != nil {
				b.Fatal(err)
			}
			sched := service.New(st, 0)
			experiment.Figure14(opts(sched))
		}
	})
	b.Run("warm", func(b *testing.B) {
		st, err := store.Open("")
		if err != nil {
			b.Fatal(err)
		}
		sched := service.New(st, 0)
		experiment.Figure14(opts(sched)) // prime outside the timer
		preUnits := sched.UnitsExecuted()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			experiment.Figure14(opts(sched))
		}
		b.StopTimer()
		if n := sched.UnitsExecuted() - preUnits; n != 0 {
			b.Fatalf("warm sweep executed %d units", n)
		}
		b.ReportMetric(0, "units_executed")
	})
}

// BenchmarkSchedulerConcurrent submits Figure 14's twelve points (d = 3, 5
// and 7 under four policies, 7 cycles, p = 1e-3, 32,768 shots each) to one
// cold scheduler at once, in the figure's order, as a campaign does, and
// times until every job is done. Each point is one 512-unit chunk, so the
// op measures how the pool's slots are shared among concurrent chunks of
// unequal cost; the sub-benchmarks set Options.Workers.
func BenchmarkSchedulerConcurrent(b *testing.B) {
	var cfgs []experiment.Config
	experiment.Figure14(experiment.Options{Shots: 32768, Seed: 2023, P: 1e-3,
		Distances: []int{3, 5, 7}, Cycles: 7,
		Runner: func(c experiment.Config) experiment.Result {
			cfgs = append(cfgs, c)
			return experiment.Result{}
		}})
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.Open("")
				if err != nil {
					b.Fatal(err)
				}
				sched := service.NewWithOptions(st, service.Options{Workers: workers})
				jobs := make([]*service.Job, len(cfgs))
				for k, c := range cfgs {
					if jobs[k], err = sched.Submit(c, service.Precision{}); err != nil {
						b.Fatal(err)
					}
				}
				for _, j := range jobs {
					if _, err := j.Result(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ------------------------------------------------------ multi-worker runs

// BenchmarkRunUnitsWorkers times the runner's multi-worker path, which no
// bench/eraserbench workload reaches (they all run one worker). It runs the
// four d=7 configs of those workloads (7 cycles, seed 2023) through
// experiment.RunUnits at Workers: 0, so GOMAXPROCS workers claim the 4-unit
// blocks of 256 units per op, and reports shots/s.
func BenchmarkRunUnitsWorkers(b *testing.B) {
	const units = 256
	for _, w := range []struct {
		name   string
		policy core.Kind
		p      float64
	}{
		{"always-d7-p1e-3", core.PolicyAlways, 1e-3},
		{"eraser-d7-p1e-3", core.PolicyEraser, 1e-3},
		{"always-d7-p1e-4", core.PolicyAlways, 1e-4},
		{"eraser-d7-p1e-4", core.PolicyEraser, 1e-4},
	} {
		b.Run(w.name, func(b *testing.B) {
			cfg := experiment.Config{Distance: 7, Cycles: 7, P: w.p, Seed: 2023,
				Policy: w.policy, Workers: 0}
			for i := 0; i < b.N; i++ {
				experiment.RunUnits(cfg, 0, units)
			}
			b.ReportMetric(float64(b.N*units*cfg.UnitShots())/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkRunUnitsPerCall times one 4-unit RunUnits call on one worker,
// the size of a one-block service chunk, at d=7, p=1e-4 and 7 cycles, for
// the Always and ERASER workloads of the benchmark. Here the simulation is
// cheapest, so the set-up every call pays weighs most. Every op runs units
// [0, 4) after one warm-up call has grown the decoder table's scratch.
func BenchmarkRunUnitsPerCall(b *testing.B) {
	const units = 4
	for _, w := range []struct {
		name   string
		policy core.Kind
	}{
		{"always-d7-p1e-4", core.PolicyAlways},
		{"eraser-d7-p1e-4", core.PolicyEraser},
	} {
		b.Run(w.name, func(b *testing.B) {
			cfg := experiment.Config{Distance: 7, Cycles: 7, P: 1e-4, Seed: 2023,
				Policy: w.policy, Workers: 1}
			experiment.RunUnits(cfg, 0, units)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				experiment.RunUnits(cfg, 0, units)
			}
		})
	}
}

// ------------------------------------------------- decode stage vs sim stage

// BenchmarkDecodeVsSim measures the two stages of a runner worker's block,
// simulation and then decoding of the block's units, separately on the
// adaptive (ERASER) workload Figure 14 sweeps:
//
//   - "stages" runs the metered unit loop and reports wall time attributed
//     to simulation versus decoding per shot, plus their ratio. The decode
//     stage must not dominate (it sits around 4.5x faster than sim on this
//     workload); the run fails if decoding costs more than simulation,
//     which would mean batched decoding regressed toward the allocating
//     per-shot cost model it retired.
//   - "decode-steady" times the batched decode of one pre-filled 64-lane
//     collector on the decoder table's warmed scratch. It must report 0
//     allocs/op — CI greps the -benchmem output, so the warm-up happens
//     before ResetTimer to keep the figure exact even at -benchtime 2x. The
//     "decode-steady/mwpm" unit is sparse (d=5, ~3 events per lane);
//     "decode-steady/mwpm-dense" decodes one simulated d=7 Always unit at
//     p=1e-3 (denseUnitD7), whose leak chains reach greedy matching and
//     full-size exact DP tables.
func BenchmarkDecodeVsSim(b *testing.B) {
	b.Run("stages", func(b *testing.B) {
		cfg := experiment.Config{Distance: 5, Cycles: 4, P: 1e-3, Shots: 1024,
			Seed: 7, Policy: core.PolicyEraser, Workers: 1}
		var m experiment.Metrics
		shots := 0
		for i := 0; i < b.N; i++ {
			_, mi, err := experiment.RunUnitsMeteredCtx(context.Background(), cfg, 0, cfg.NumUnits())
			if err != nil {
				b.Fatal(err)
			}
			m.Add(mi)
			shots += cfg.Shots
		}
		simPerShot := float64(m.SimNS) / float64(shots)
		decPerShot := float64(m.DecodeNS) / float64(shots)
		b.ReportMetric(simPerShot, "sim_ns/shot")
		b.ReportMetric(decPerShot, "decode_ns/shot")
		b.ReportMetric(simPerShot/decPerShot, "sim_over_decode_x")
		if decPerShot > simPerShot {
			b.Fatalf("decode stage slower than sim stage: %.0f ns/shot vs %.0f ns/shot",
				decPerShot, simPerShot)
		}
	})
	b.Run("decode-steady/mwpm", func(b *testing.B) {
		l := surfacecode.MustNew(5)
		const rounds = 5
		dec := decoder.New(l, decoder.Config{})
		// A representative 64-lane unit: ~4% detector density, the flooded
		// end of the paper's operating points.
		rng := stats.NewRNG(13, 5)
		col := decoder.NewBatchCollector()
		for lane := 0; lane < decoder.BatchLanes; lane++ {
			for r := 1; r <= rounds+1; r++ {
				for z := 0; z < l.NumZ(); z++ {
					if rng.Float64() < 0.04 {
						col.Add(1<<uint(lane), z, r)
					}
				}
			}
		}
		for i := 0; i < 3; i++ { // grow the table's scratch to steady state
			dec.DecodeLanes(col, 0, decoder.BatchLanes)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec.DecodeLanes(col, 0, decoder.BatchLanes)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decoder.BatchLanes),
			"decode_ns/shot")
	})
	b.Run("decode-steady/mwpm-dense", func(b *testing.B) {
		l, col := denseUnitD7()
		dec := decoder.New(l, decoder.Config{})
		for i := 0; i < 3; i++ { // grow the table's scratch to steady state
			dec.DecodeLanes(col, 0, decoder.BatchLanes)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec.DecodeLanes(col, 0, decoder.BatchLanes)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decoder.BatchLanes),
			"decode_ns/shot")
	})
}

// denseUnitD7 simulates one 64-shot unit of the decode-bound Figure-14
// point, Always LRCs at d=7, 7 cycles (49 rounds), p=1e-3, and returns its
// detection events in a collector, as the runner collects them. Leaked
// parity qubits fill its lanes with time chains: dozens of events per lane
// and clusters past matching.MaxExact.
func denseUnitD7() (*surfacecode.Layout, *decoder.BatchCollector) {
	l := surfacecode.MustNew(7)
	const rounds = 49
	ws := batch.NewWide(l, noise.Standard(1e-3), surfacecode.KindZ)
	var rngs [batch.BlockWords]*stats.RNG
	for w := range rngs {
		rngs[w] = stats.NewRNG(2023, uint64(w))
	}
	ws.Reset(rngs)
	ks := decoder.KindStabMaps(l, surfacecode.KindZ)
	pol := core.NewPolicy(core.PolicyAlways, l, circuit.ProtocolSwap)
	builder := circuit.NewBuilder(l)
	col := decoder.NewBatchCollector()
	for r := 1; r <= rounds; r++ {
		col.AddWideWords(ws.RunRound(builder.Round(pol.PlanRound(r))), batch.BlockWords, 0, ks, r, batch.AllLanes)
	}
	fdet, _ := ws.FinalRound(builder.FinalMeasurement())
	col.AddWideWords(fdet, batch.BlockWords, 0, ks, rounds+1, batch.AllLanes)
	return l, col
}

// -------------------------------------------------------- substrate micro

func BenchmarkSimRoundD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	s := sim.New(l, noise.Standard(1e-3), stats.NewRNG(1, 1))
	builder := circuit.NewBuilder(l)
	ops := builder.Round(circuit.Plan{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRound(ops)
	}
}

// BenchmarkDecodeD7 decodes the densest shot of denseUnitD7: one lane of a
// simulated d=7 Always unit at p=1e-3, leak chains included.
func BenchmarkDecodeD7(b *testing.B) {
	l, col := denseUnitD7()
	dec := decoder.New(l, decoder.Config{})
	var events []decoder.Event
	for lane := 0; lane < decoder.BatchLanes; lane++ {
		if ev := col.Lane(lane); len(ev) > len(events) {
			events = ev
		}
	}
	dec.Decode(events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(events)
	}
	b.ReportMetric(float64(len(events)), "events")
}

func BenchmarkQuditCNOT(b *testing.B) {
	d := qudit.New(5)
	u := qudit.CNOT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ApplyUnitary2(0, 4, u)
	}
}

func BenchmarkMemoryExperimentShot(b *testing.B) {
	cfg := experiment.Config{Distance: 5, Cycles: 5, P: 1e-3, Shots: 1, Seed: 4,
		Policy: core.PolicyEraser, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		experiment.Run(cfg)
	}
}
