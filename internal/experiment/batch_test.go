package experiment

import (
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// TestBatchDeterministicAcrossWorkers: the batch path's tallies are
// identical across repeated runs and for any worker count, over four blocks
// with a partial final unit (shots not a multiple of 64), for both the
// shared-plan (Always) and the lane-masked adaptive (ERASER, ERASER+M,
// Optimal) policies.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	for _, pol := range []core.Kind{core.PolicyAlways, core.PolicyEraser,
		core.PolicyEraserM, core.PolicyOptimal} {
		cfg := Config{Distance: 3, Cycles: 3, P: 2e-3, Shots: 1000, Seed: 5,
			Policy: pol, Workers: 1}
		a := Run(cfg)
		b := Run(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: batch path not deterministic for a fixed seed:\n  %+v\n  %+v", pol, a, b)
		}
		requireWorkerInvariant(t, pol.String(), cfg)
	}
}

// TestBatchPartialBatchAccounting: with 70 shots (64 + 6) every per-decision
// counter must cover exactly the active lanes, on both batch workers.
func TestBatchPartialBatchAccounting(t *testing.T) {
	for _, pol := range []core.Kind{core.PolicyAlways, core.PolicyEraser,
		core.PolicyEraserM, core.PolicyOptimal} {
		cfg := Config{Distance: 3, Cycles: 2, P: 1e-3, Shots: 70, Seed: 3,
			Policy: pol}
		res := Run(cfg)
		total := res.TruePos + res.FalsePos + res.TrueNeg + res.FalseNeg
		want := int64(70) * int64(res.Rounds) * int64(9)
		if total != want {
			t.Fatalf("%v: decision count %d, want %d", pol, total, want)
		}
		if res.Shots != 70 {
			t.Fatalf("%v: shots = %d", pol, res.Shots)
		}
	}
}

// TestBatchNoiselessIsPerfect: the batch path decodes every noiseless shot
// correctly with zero leakage, for plain, Always-SWAP and Always-DQLR
// schedules in both memory bases.
func TestBatchNoiselessIsPerfect(t *testing.T) {
	np := noise.Standard(0)
	for _, tc := range []struct {
		name  string
		pol   core.Kind
		proto circuit.Protocol
		basis surfacecode.Kind
	}{
		{"none-z", core.PolicyNone, circuit.ProtocolSwap, surfacecode.KindZ},
		{"always-z", core.PolicyAlways, circuit.ProtocolSwap, surfacecode.KindZ},
		{"always-dqlr-z", core.PolicyAlways, circuit.ProtocolDQLR, surfacecode.KindZ},
		{"none-x", core.PolicyNone, circuit.ProtocolSwap, surfacecode.KindX},
		{"always-x", core.PolicyAlways, circuit.ProtocolSwap, surfacecode.KindX},
		{"eraser-z", core.PolicyEraser, circuit.ProtocolSwap, surfacecode.KindZ},
		{"eraserM-z", core.PolicyEraserM, circuit.ProtocolSwap, surfacecode.KindZ},
		{"optimal-z", core.PolicyOptimal, circuit.ProtocolSwap, surfacecode.KindZ},
		{"eraser-x", core.PolicyEraser, circuit.ProtocolSwap, surfacecode.KindX},
	} {
		res := Run(Config{Distance: 3, Cycles: 3, Noise: &np, Shots: 100, Seed: 1,
			Policy: tc.pol, Protocol: tc.proto, Basis: tc.basis})
		if res.LogicalErrors != 0 {
			t.Errorf("%s: noiseless batch run produced %d logical errors",
				tc.name, res.LogicalErrors)
		}
		if res.MeanLPR() != 0 {
			t.Errorf("%s: noiseless batch run produced leakage %v", tc.name, res.MeanLPR())
		}
	}
}

// TestBatchMatchesScalarStatistically is the engine-agreement test: at
// matched configs and shot counts the batch and scalar simulators must
// produce LERs with overlapping 95% Wilson intervals and comparable leakage
// populations, for all five policies — the static NoLRC/Always baselines on
// the shared-plan worker and ERASER/ERASER+M/Optimal on the lane-masked
// worker.
func TestBatchMatchesScalarStatistically(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	overlap := func(al, ah, bl, bh float64) bool { return al <= bh && bl <= ah }
	for _, tc := range []struct {
		name   string
		pol    core.Kind
		proto  circuit.Protocol
		static bool
	}{
		{"none", core.PolicyNone, circuit.ProtocolSwap, true},
		{"always", core.PolicyAlways, circuit.ProtocolSwap, true},
		{"always-dqlr", core.PolicyAlways, circuit.ProtocolDQLR, true},
		{"eraser", core.PolicyEraser, circuit.ProtocolSwap, false},
		{"eraserM", core.PolicyEraserM, circuit.ProtocolSwap, false},
		{"optimal", core.PolicyOptimal, circuit.ProtocolSwap, false},
		{"eraser-dqlr", core.PolicyEraser, circuit.ProtocolDQLR, false},
	} {
		cfg := Config{Distance: 3, Cycles: 4, P: 3e-3, Shots: 4000, Seed: 42,
			Policy: tc.pol, Protocol: tc.proto}
		bat := Run(cfg)
		sca := RunScalar(cfg, nil)
		t.Logf("%s: batch LER %.4f [%.4f, %.4f], scalar LER %.4f [%.4f, %.4f]",
			tc.name, bat.LER, bat.LERLow, bat.LERHigh, sca.LER, sca.LERLow, sca.LERHigh)
		t.Logf("%s: batch LPR %.5f, scalar LPR %.5f", tc.name, bat.MeanLPR(), sca.MeanLPR())
		if !overlap(bat.LERLow, bat.LERHigh, sca.LERLow, sca.LERHigh) {
			t.Errorf("%s: batch and scalar LER intervals disjoint", tc.name)
		}
		// Leakage populations: same order of magnitude (both are means over
		// thousands of rare-event observations).
		if r := stats.Ratio(bat.MeanLPR(), sca.MeanLPR()); r < 0.5 || r > 2 {
			t.Errorf("%s: batch/scalar LPR ratio %v outside [0.5, 2]", tc.name, r)
		}
		if tc.static {
			// LRC scheduling is deterministic for static policies, so the
			// count must agree exactly.
			if bat.LRCsPerRound != sca.LRCsPerRound {
				t.Errorf("%s: LRCs/round %v (batch) != %v (scalar)",
					tc.name, bat.LRCsPerRound, sca.LRCsPerRound)
			}
		} else if r := stats.Ratio(bat.LRCsPerRound, sca.LRCsPerRound); r < 0.8 || r > 1.25 {
			// Adaptive scheduling reacts to the noise realization, so the
			// engines' LRC counts agree only in distribution.
			t.Errorf("%s: batch/scalar LRCs-per-round ratio %v outside [0.8, 1.25]",
				tc.name, r)
		}
	}
}

// TestBatchSpeculationCountersMatchScalar: the per-decision speculation
// accounting (tp/fp/tn/fn, Figure 16) of the lane-masked batch workers must
// agree with the scalar path's in distribution at matched configs: the
// engines see different noise realizations, so rates — accuracy, FPR, FNR —
// are compared within tolerances set by their Monte-Carlo spread.
func TestBatchSpeculationCountersMatchScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, pol := range []core.Kind{core.PolicyEraser, core.PolicyEraserM, core.PolicyOptimal} {
		cfg := Config{Distance: 3, Cycles: 4, P: 3e-3, Shots: 3000, Seed: 27, Policy: pol}
		bat := Run(cfg)
		sca := RunScalar(cfg, nil)
		t.Logf("%v: batch acc=%.4f fpr=%.5f fnr=%.4f lrcs=%.4f | scalar acc=%.4f fpr=%.5f fnr=%.4f lrcs=%.4f",
			pol, bat.Accuracy(), bat.FPR(), bat.FNR(), bat.LRCsPerRound,
			sca.Accuracy(), sca.FPR(), sca.FNR(), sca.LRCsPerRound)
		total := bat.TruePos + bat.FalsePos + bat.TrueNeg + bat.FalseNeg
		if want := int64(cfg.Shots) * int64(bat.Rounds) * 9; total != want {
			t.Errorf("%v: batch decision count %d, want %d", pol, total, want)
		}
		if diff := bat.Accuracy() - sca.Accuracy(); diff < -0.01 || diff > 0.01 {
			t.Errorf("%v: accuracy diverged: batch %v vs scalar %v", pol, bat.Accuracy(), sca.Accuracy())
		}
		if diff := bat.FPR() - sca.FPR(); diff < -0.01 || diff > 0.01 {
			t.Errorf("%v: FPR diverged: batch %v vs scalar %v", pol, bat.FPR(), sca.FPR())
		}
		// FNR is a rate over the rare leaked population (~1e-3 of decisions),
		// so its Monte-Carlo spread is much wider.
		if diff := bat.FNR() - sca.FNR(); diff < -0.12 || diff > 0.12 {
			t.Errorf("%v: FNR diverged: batch %v vs scalar %v", pol, bat.FNR(), sca.FNR())
		}
		if r := stats.Ratio(bat.LRCsPerRound, sca.LRCsPerRound); r < 0.8 || r > 1.25 {
			t.Errorf("%v: LRCs/round ratio %v outside [0.8, 1.25]", pol, r)
		}
		if pol == core.PolicyOptimal && bat.FPR() != 0 {
			t.Errorf("optimal: batch FPR %v, want exactly 0 (oracle never over-schedules)", bat.FPR())
		}
	}
}
