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
	imp := s.Improvement(1, 0) // Always / ERASER
	b.ReportMetric(stats.Max(imp), "eraser_improvement_x")
	impM := s.Improvement(1, 2)
	b.ReportMetric(stats.Max(impM), "eraserM_improvement_x")
}

func BenchmarkFigure14LowP(b *testing.B) {
	o := benchOpts()
	o.P = 1e-4
	o.Shots = 150
	var s *experiment.DistanceSweep
	for i := 0; i < b.N; i++ {
		s = experiment.Figure14(o)
	}
	b.ReportMetric(stats.Max(s.Improvement(1, 0)), "eraser_improvement_x")
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
	b.ReportMetric(stats.Max(s.Improvement(1, 0)), "eraser_improvement_x")
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
	b.ReportMetric(stats.Max(s.Improvement(1, 0)), "eraser_improvement_x")
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

// runAblation measures the LER of a tuned ERASER variant.
func runAblation(b *testing.B, tune func(core.Policy)) float64 {
	b.Helper()
	res := experiment.Run(experiment.Config{
		Distance: 5, Cycles: 4, P: 1e-3, Shots: 150, Seed: 31,
		Policy: core.PolicyEraser, Tune: tune,
	})
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

// BenchmarkAblationDecoder compares the MWPM and union-find decoding engines
// end to end on identical experiments.
func BenchmarkAblationDecoder(b *testing.B) {
	var mwpm, uf float64
	for i := 0; i < b.N; i++ {
		cfg := experiment.Config{Distance: 5, Cycles: 4, P: 1e-3, Shots: 150,
			Seed: 31, Policy: core.PolicyEraser}
		mwpm = experiment.Run(cfg).LER
		cfg.UseUnionFind = true
		uf = experiment.Run(cfg).LER
	}
	b.ReportMetric(mwpm, "LER_mwpm")
	b.ReportMetric(uf, "LER_unionfind")
}

// BenchmarkUnionFindDecodeD7 measures the union-find engine on a flooded
// event set.
func BenchmarkUnionFindDecodeD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	dec := decoder.NewUnionFind(l, surfacecode.KindZ, 70)
	rng := stats.NewRNG(2, 2)
	events := make([]decoder.Event, 40)
	for i := range events {
		events[i] = decoder.Event{Z: rng.IntN(l.NumZ()), Round: 1 + rng.IntN(70)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(events)
	}
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
	inst := matching.Instance{
		N: n,
		PairWeight: func(i, j int) float64 {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			return dx + dy
		},
		BoundaryWeight: func(i int) float64 { return 3 + xs[i]/10 },
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

// BenchmarkBatchRoundD7Profile is BenchmarkBatchRoundD7 on a heterogeneous
// drift profile: every qubit in its own rate class, so it bounds the cost of
// per-site class lookups and ~200 extra geometric streams.
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
	s := batch.New(l, noise.Standard(1e-3), surfacecode.KindZ)
	s.UseRates(rates)
	s.Reset(stats.NewRNG(1, 1))
	builder := circuit.NewBuilder(l)
	ops := builder.Round(circuit.Plan{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRound(ops)
	}
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
			c := cfg
			c.ForceScalar = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiment.Run(c)
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

// BenchmarkBatchRoundD7 is BenchmarkSimRoundD7's batch counterpart: one
// syndrome extraction round advancing 64 shots at once.
func BenchmarkBatchRoundD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	s := batch.New(l, noise.Standard(1e-3), surfacecode.KindZ)
	s.Reset(stats.NewRNG(1, 1))
	builder := circuit.NewBuilder(l)
	ops := builder.Round(circuit.Plan{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRound(ops)
	}
}

// BenchmarkBatchMaskedRoundD7 measures the adaptive engine's substrate: one
// lane-masked round (plan merge + masked execution) with a realistic sparse
// spread of per-lane LRCs — a few lanes scheduling one LRC each, as ERASER
// produces at the paper's error rates.
func BenchmarkBatchMaskedRoundD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	s := batch.New(l, noise.Standard(1e-3), surfacecode.KindZ)
	s.Reset(stats.NewRNG(1, 1))
	builder := circuit.NewBuilder(l)
	plans := make([]circuit.Plan, batch.Lanes)
	for i := 0; i < batch.Lanes; i += 9 {
		q := (i * 7) % l.NumData
		plans[i] = circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRoundMasked(builder.MaskedRound(plans, circuit.LaneMask{batch.AllLanes}))
	}
}

// BenchmarkBatchRoundD7Wide is BenchmarkBatchRoundD7 at the wide engine's
// width: one syndrome extraction round advancing 256 shots (4 bit-exact
// 64-lane units) at once. The CI allocation gate greps this benchmark's
// -benchmem column for 0 allocs/op — the wide hot loop must stay
// allocation-free like the narrow one.
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

// BenchmarkBatchMaskedRoundD7Wide is the wide counterpart of
// BenchmarkBatchMaskedRoundD7: one lane-masked round over 256 lanes with the
// same sparse per-lane LRC density. One round before the timer grows the
// builder's buffers, so the CI allocation gate can hold the timed rounds to
// 0 allocs/op even at -benchtime 2x.
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

// BenchmarkBuilderRoundD7 measures the static round build the shared-plan
// workers call every round: one warmed builder alternating Always's dense
// and sparse d=7 plans, which Round serves from its memo. The CI allocation
// gate greps it for 0 allocs/op.
func BenchmarkBuilderRoundD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	pol := core.NewPolicy(core.PolicyAlways, l, circuit.ProtocolSwap)
	// PlanRound rewrites one buffer in place, so keep copies of both plans.
	var plans [2]circuit.Plan
	for i, r := range []int{2, 3} {
		plans[i] = pol.PlanRound(r)
		plans[i].LRCs = slices.Clone(plans[i].LRCs)
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

// BenchmarkLanePoliciesD7 measures the bit-sliced ERASER planner in front of
// the wide engine: one round of PlanRound + Observe over 256 lanes at d=7,
// fed detection-event planes at the density a p=1e-3 memory experiment
// produces (~1/64 per stabilizer per round; 37.5 events per 49-round shot).
// The planner is warmed over every pre-drawn plane before the timer starts,
// so the per-lane LRC buffers have reached their steady capacity; the CI
// allocation gate greps this benchmark for 0 allocs/op.
func BenchmarkLanePoliciesD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	lp := core.NewLanePolicies(core.PolicyEraser, l, circuit.ProtocolSwap, batch.BlockLanes)
	rng := stats.NewRNG(1, 1)
	const rounds = 16
	planes := make([][]uint64, rounds)
	for r := range planes {
		planes[r] = make([]uint64, l.NumParity*batch.BlockWords)
		for i := range planes[r] {
			planes[r][i] = ^uint64(0)
			for j := 0; j < 6; j++ {
				planes[r][i] &= rng.Uint64()
			}
		}
	}
	active := batch.BlockMask(batch.BlockLanes)
	round := func(r int) {
		lp.PlanRound(r, active)
		lp.Observe(core.LaneRoundInfo{Round: r, Active: active, Events: planes[r%rounds]})
	}
	lp.Reset()
	for r := 1; r <= 4*rounds; r++ {
		round(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.BlockLanes), "ns/shot")
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

// ------------------------------------------------- decode stage vs sim stage

// BenchmarkDecodeVsSim measures the two stages of the lane-parallel pipeline
// separately on the adaptive (ERASER) workload Figure 14 sweeps:
//
//   - "stages" runs the metered unit loop and reports wall time attributed
//     to simulation versus decoding per shot, plus their ratio. The decode
//     stage must not dominate (it sits around 4.5x faster than sim on this
//     workload); the run fails if decoding costs more than simulation,
//     which would mean the batched decoders regressed toward the allocating
//     per-shot cost model this pipeline retired.
//   - "decode-steady" times the batched decode of one pre-filled 64-lane
//     collector on warmed arenas. It must report 0 allocs/op — CI greps the
//     -benchmem output, so the warm-up happens before ResetTimer to keep the
//     figure exact even at -benchtime 2x.
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
	for _, eng := range []struct {
		name string
		mk   func(l *surfacecode.Layout, rounds int) decoder.BatchDecoder
	}{
		{"decode-steady/mwpm", func(l *surfacecode.Layout, rounds int) decoder.BatchDecoder {
			return decoder.New(l, decoder.DefaultConfig())
		}},
		{"decode-steady/unionfind", func(l *surfacecode.Layout, rounds int) decoder.BatchDecoder {
			return decoder.NewUnionFind(l, surfacecode.KindZ, rounds)
		}},
	} {
		b.Run(eng.name, func(b *testing.B) {
			l := surfacecode.MustNew(5)
			const rounds = 5
			dec := eng.mk(l, rounds)
			// A representative 64-lane unit: ~4% detector density, the
			// flooded end of the paper's operating points.
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
			for i := 0; i < 3; i++ { // grow arenas to steady state
				dec.DecodeBatch(col)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.DecodeBatch(col)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decoder.BatchLanes),
				"decode_ns/shot")
		})
	}
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

func BenchmarkDecodeD7(b *testing.B) {
	l := surfacecode.MustNew(7)
	dec := decoder.New(l, decoder.DefaultConfig())
	rng := stats.NewRNG(2, 2)
	// A representative flooded shot: 40 events across 70 rounds.
	events := make([]decoder.Event, 40)
	for i := range events {
		events[i] = decoder.Event{Z: rng.IntN(l.NumZ()), Round: 1 + rng.IntN(70)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(events)
	}
}

func BenchmarkQuditCNOT(b *testing.B) {
	d := qudit.New(5)
	u := qudit.CNOT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ApplyUnitary2(0, 4, u)
	}
}

func BenchmarkLayoutConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		surfacecode.MustNew(11)
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
