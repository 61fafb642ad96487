package experiment

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunScalar runs the experiment serially on the scalar engine: one
// sim.Simulator and one core.Policy instance, shot by shot. It is the
// statistical oracle the engine-agreement tests and benchmarks compare Run
// against, and where ablations run: tune, when non-nil, adjusts the policy
// after construction (the bit-sliced planner Run uses has no tuning knobs).
// Shot u is seeded with the u-th draw of the config's root stream on RNG
// stream u, so its results depend on the config alone. Workers is ignored.
// Its shots are not Run's, so its results are never keyed or stored.
func RunScalar(cfg Config, tune func(core.Policy)) Result {
	rs := newRunSetup(cfg)
	layout, rounds := rs.layout, rs.rounds
	dec := rs.decoder()
	builder := circuit.NewBuilder(layout)
	pol := core.NewPolicy(cfg.Policy, layout, cfg.Protocol)
	if tune != nil {
		tune(pol)
	}
	root := stats.NewRNG(cfg.Seed, configStream(cfg))
	acc := NewTally(rounds, 1)
	truth := make([]bool, layout.NumData)
	prevTruth := make([]bool, layout.NumData)
	events := make([]decoder.Event, 0, 64)
	var s *sim.Simulator

	for shot := 0; shot < cfg.Shots; shot++ {
		acc.Shots++
		rng := stats.NewRNG(root.Uint64(), uint64(shot))
		if s == nil {
			s = sim.NewMemory(layout, rs.np, rng, cfg.Basis)
			s.UseRates(rs.rates)
		} else {
			s.Reset(rng)
		}
		pol.Reset()
		clear(prevTruth)
		events = events[:0]

		for r := 1; r <= rounds; r++ {
			plan := pol.PlanRound(r)
			acc.LRCs += int64(len(plan.LRCs))
			// Decision accounting against the leakage state at the end of
			// the previous round.
			for q := 0; q < layout.NumData; q++ {
				switch planned, leaked := pol.PlannedLRC(q), prevTruth[q]; {
				case planned && leaked:
					acc.TruePos++
				case planned && !leaked:
					acc.FalsePos++
				case !planned && leaked:
					acc.FalseNeg++
				default:
					acc.TrueNeg++
				}
			}

			rr := s.RunRound(builder.Round(plan))
			for i := range layout.Stabilizers {
				if rr.Events[i] != 0 && layout.Stabilizers[i].Kind == cfg.Basis {
					events = append(events, decoder.Event{Z: layout.KindOrdinal(cfg.Basis, i), Round: r})
				}
			}
			dleak, pleak := s.LeakedCounts()
			acc.LPRDataNum[r-1] += int64(dleak)
			acc.LPRParityNum[r-1] += int64(pleak)

			s.SnapshotLeakedData(truth)
			pol.Observe(core.RoundInfo{
				Round:          r,
				Events:         rr.Events,
				MLParity:       rr.MLParity,
				MLData:         rr.MLData,
				TrueLeakedData: truth,
			})
			prevTruth, truth = truth, prevTruth
		}

		final := s.FinalMeasure(builder.FinalMeasurement())
		for i, e := range s.FinalDetectors(final) {
			if e != 0 {
				events = append(events, decoder.Event{Z: layout.KindOrdinal(cfg.Basis, i), Round: rounds + 1})
			}
		}
		if dec.Decode(events) != s.ObservableFlip(final) {
			acc.LogicalErrors++
		}
	}
	return acc.ResultFor(cfg)
}
