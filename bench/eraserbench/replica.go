package main

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/experiment"
	"repro/internal/matching"
	"repro/internal/noise"
	"repro/internal/sim/batch"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// replicaLayers names every span the replica records inside a block, plus
// the per-call set-up span; the block span itself is the unattributed rest.
var replicaLayers = []string{
	"experiment.setup", "core.plan", "core.observe", "circuit.build", "batch.reset_final",
	"batch.round", "decoder.collect", "decoder.decode", "experiment.account",
}

// replica replays experiment's 256-lane block loop (runBatchWorker for the
// static policies, runBatchLaneWorker for the adaptive ones, on the inline
// Workers=1 path) through the public calls of each layer, with a span
// around every call. It draws its own per-unit seeds, so its tallies match
// the runner's in distribution, not bit for bit.
type replica struct {
	cfg  experiment.Config
	seed uint64
	tr   *tracer
	n    replicaCounts
}

// replicaCounts are the work counts of every block the replica ran.
type replicaCounts struct {
	shots, roundShots int64
	ops               int64 // ops emitted by the circuit builder, over block-rounds
	blockRounds       int64
	lrcs              int64
	tp, fp, tn, fn    int64
	leaked            int64 // leaked (lane, qubit) pairs at round ends
	events, dense     int64
	errors            int64
}

// runChunk replays units [lo, hi), a whole number of 4-unit blocks, the way
// one RunUnitsMeteredCtx call would: per-call construction first, then the
// blocks.
func (rp *replica) runChunk(lo, hi int) {
	cfg, tr, n := rp.cfg, rp.tr, &rp.n
	tr.root = lo / batch.BlockWords
	tr.begin("experiment.setup")
	layout := surfacecode.MustNew(cfg.Distance)
	rounds := cfg.NumRounds()
	np := noise.Standard(cfg.P)
	if cfg.Noise != nil {
		np = *cfg.Noise
	}
	dec := decoder.NewForKind(layout, cfg.Decoder, cfg.Basis)
	builder := circuit.NewBuilder(layout)
	ks := kindStabs(layout, cfg.Basis)
	ws := batch.NewWide(layout, np, cfg.Basis)
	ws.TrackML = cfg.Policy == core.PolicyEraserM
	static := cfg.Policy == core.PolicyNone || cfg.Policy == core.PolicyAlways
	var pol core.Policy
	var lp *core.LanePolicies
	if static {
		pol = core.NewPolicy(cfg.Policy, layout, cfg.Protocol)
	} else {
		lp = core.NewLanePolicies(cfg.Policy, layout, cfg.Protocol, batch.BlockLanes)
	}
	var cols [batch.BlockWords]*decoder.BatchCollector
	for j := range cols {
		cols[j] = decoder.NewBatchCollector()
	}
	tr.end()

	active := batch.BlockMask(batch.BlockLanes)
	for a := lo; a < hi; a += batch.BlockWords {
		tr.root = a / batch.BlockWords
		tr.begin("block")
		tr.begin("batch.reset_final")
		var rngs [batch.BlockWords]*stats.RNG
		for j := range rngs {
			u := a + j
			rngs[j] = stats.NewRNG(unitSeed(rp.seed, u), uint64(u))
			cols[j].Reset()
		}
		ws.Reset(rngs)
		tr.end()
		tr.begin("core.plan")
		if static {
			pol.Reset()
		} else {
			lp.Reset()
		}
		tr.end()

		for r := 1; r <= rounds; r++ {
			var plan circuit.Plan
			var plans []circuit.Plan
			tr.begin("core.plan")
			if static {
				plan = pol.PlanRound(r)
			} else {
				plans = lp.PlanRound(r, active)
			}
			tr.end()

			// Decision accounting against the leakage state at the end of
			// the previous round, as the runner does.
			tr.begin("experiment.account")
			if static {
				n.lrcs += int64(len(plan.LRCs)) * batch.BlockLanes
				for q := 0; q < layout.NumData; q++ {
					lk := ws.LeakedBlock(q)
					cnt := int64(bits.OnesCount64(lk[0]) + bits.OnesCount64(lk[1]) +
						bits.OnesCount64(lk[2]) + bits.OnesCount64(lk[3]))
					if pol.PlannedLRC(q) {
						n.tp += cnt
						n.fp += batch.BlockLanes - cnt
					} else {
						n.fn += cnt
						n.tn += batch.BlockLanes - cnt
					}
				}
			} else {
				n.lrcs += lp.LRCTotal()
				for q := 0; q < layout.NumData; q++ {
					planned, leaked := lp.PlannedWords(q), ws.LeakedBlock(q)
					var tp, fp, fn int64
					for j := 0; j < batch.BlockWords; j++ {
						tp += int64(bits.OnesCount64(planned[j] & leaked[j]))
						fp += int64(bits.OnesCount64(planned[j] &^ leaked[j]))
						fn += int64(bits.OnesCount64(leaked[j] &^ planned[j]))
					}
					n.tp += tp
					n.fp += fp
					n.fn += fn
					n.tn += batch.BlockLanes - tp - fp - fn
				}
			}
			tr.end()

			var events []uint64
			if static {
				tr.begin("circuit.build")
				ops := builder.Round(plan)
				tr.end()
				n.ops += int64(len(ops))
				tr.begin("batch.round")
				events = ws.RunRound(ops)
				tr.end()
			} else {
				tr.begin("circuit.build")
				mops := builder.MaskedRound(plans, active)
				tr.end()
				n.ops += int64(len(mops))
				tr.begin("batch.round")
				events = ws.RunRoundMasked(mops)
				tr.end()
			}

			tr.begin("decoder.collect")
			for j := range cols {
				cols[j].AddWideWords(events, batch.BlockWords, j, ks, r, batch.AllLanes)
			}
			tr.end()

			tr.begin("experiment.account")
			dl, pl := ws.LeakedCounts(active)
			n.leaked += int64(dl + pl)
			tr.end()

			if !static {
				tr.begin("core.observe")
				lp.Observe(core.LaneRoundInfo{
					Round:          r,
					Active:         active,
					Events:         events,
					MLParityLeak:   ws.MLParityLeak(),
					MLParityVal:    ws.MLParityVal(),
					TrueLeakedData: ws.LeakedDataWords(),
				})
				tr.end()
			}
		}

		tr.begin("circuit.build")
		final := builder.FinalMeasurement()
		tr.end()
		tr.begin("batch.reset_final")
		fdet, obs := ws.FinalRound(final)
		tr.end()
		tr.begin("decoder.collect")
		for j := range cols {
			cols[j].AddWideWords(fdet, batch.BlockWords, j, ks, rounds+1, batch.AllLanes)
		}
		tr.end()
		tr.begin("decoder.decode")
		for j := range cols {
			n.errors += int64(bits.OnesCount64(dec.DecodeLanes(cols[j], 0, batch.Lanes) ^ obs[j]))
		}
		tr.end()
		tr.begin("experiment.account")
		for j := range cols {
			for lane := 0; lane < batch.Lanes; lane++ {
				ev := len(cols[j].Lane(lane))
				n.events += int64(ev)
				if ev > matching.MaxExact {
					n.dense++
				}
			}
		}
		tr.end()
		tr.end() // block

		n.shots += batch.BlockLanes
		n.roundShots += int64(rounds) * batch.BlockLanes
		n.blockRounds += int64(rounds)
	}
}

// kindStabs maps the memory basis's stabilizers to decoder ordinals, as the
// runner does once per worker.
func kindStabs(l *surfacecode.Layout, basis surfacecode.Kind) []decoder.StabMap {
	var ks []decoder.StabMap
	for i := range l.Stabilizers {
		if l.Stabilizers[i].Kind == basis {
			ks = append(ks, decoder.StabMap{Idx: int32(i), Ord: int32(l.KindOrdinal(basis, i))})
		}
	}
	return ks
}

// unitSeed derives the replica's seed for unit u (a splitmix64 finalizer
// over the workload seed and the unit index).
func unitSeed(seed uint64, u int) uint64 {
	z := seed ^ (uint64(u)+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// traceLayers alternates an untraced RunUnitsMeteredCtx chunk with the
// replica over the same unit range, pairs times, and derives the per-layer
// ledger: self time per shot of every layer span, the runner's own
// sim/decode split, the replica's work counts, and the two trace gates.
// Alternating keeps host drift from opening a gap between the two sides.
// It makes 2+2·pairs chunk calls.
func traceLayers(ctx context.Context, cfg experiment.Config, seed uint64, pairs int, tr *tracer) (map[string]Metric, []Check, error) {
	cfg.Workers = 1
	warm := &replica{cfg: cfg, seed: seed, tr: newTracer()}
	if err := safely(func() { warm.runChunk(0, chunkUnits) }); err != nil {
		return nil, nil, err
	}
	if _, _, err := runChunk(ctx, cfg, 0, chunkUnits); err != nil {
		return nil, nil, err
	}
	rp := &replica{cfg: cfg, seed: seed, tr: tr}
	var untraced, traced time.Duration
	var m experiment.Metrics
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		lo, hi := i*chunkUnits, (i+1)*chunkUnits
		t0 := time.Now()
		_, mm, err := runChunk(ctx, cfg, lo, hi)
		u := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		m.Add(mm)
		t1 := time.Now()
		if err := safely(func() { rp.runChunk(lo, hi) }); err != nil {
			return nil, nil, err
		}
		t := time.Since(t1)
		untraced += u
		traced += t
		ratios = append(ratios, float64(t)/float64(u))
	}

	n := rp.n
	shots := float64(n.shots)
	runnerShots := float64(pairs * chunkShots)
	self := tr.selfNS()
	perShot := func(names ...string) Metric {
		var ns int64
		for _, name := range names {
			ns += self[name]
		}
		return single("ns/shot", float64(ns)/shots)
	}
	out := map[string]Metric{
		"core.policy_ns_per_shot":       perShot("core.plan", "core.observe"),
		"experiment.sim_ns_per_shot":    single("ns/shot", float64(m.SimNS)/runnerShots),
		"experiment.decode_ns_per_shot": single("ns/shot", float64(m.DecodeNS)/runnerShots),
		"trace.ns_per_shot":             single("ns/shot", float64(traced)/shots),
		"trace.untraced_ns_per_shot":    single("ns/shot", float64(untraced)/runnerShots),
		"circuit.ops_per_round":         single("count", float64(n.ops)/float64(n.blockRounds)),
		"core.lrcs_per_shot_round":      single("count", float64(n.lrcs)/float64(n.roundShots)),
		"core.lrc_precision":            single("ratio", ratio(n.tp, n.tp+n.fp)),
		"batch.leaked_per_shot_round":   single("count", float64(n.leaked)/float64(n.roundShots)),
		"decoder.events_per_shot":       single("count", float64(n.events)/shots),
		"decoder.dense_lane_frac":       single("ratio", float64(n.dense)/shots),
		"decoder.ler":                   single("ratio", float64(n.errors)/shots),
		"trace.shots":                   single("shots", shots),
		// Non-zero when the runner leaves the 256-lane engine the replica mirrors.
		"experiment.runner_narrow_units": single("count", float64(m.NarrowUnits)),
	}
	var attributed int64
	for _, name := range replicaLayers {
		out[name+"_ns_per_shot"] = perShot(name)
		attributed += self[name]
	}
	unattributed := 1 - float64(attributed)/float64(traced)
	// Both sides of a pair cover the same units, so the median pair ratio
	// compares like with like and ignores a host stall in any one chunk.
	gap := median(sorted(ratios)) - 1
	out["trace.unattributed_frac"] = single("ratio", unattributed)
	out["trace.gap_frac"] = single("ratio", gap)
	gates := []Check{
		{Name: "trace.unattributed_frac <= 0.10", OK: unattributed <= 0.10, Detail: fmt.Sprintf("%.4f", unattributed)},
		{Name: "|trace.gap_frac| <= 0.10", OK: gap >= -0.10 && gap <= 0.10, Detail: fmt.Sprintf("%+.4f", gap)},
	}
	return out, gates, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
