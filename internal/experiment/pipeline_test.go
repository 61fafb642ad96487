package experiment

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestPipelineBitExactAllPolicies: several workers claiming blocks and
// decoding their own units (Workers > 1) must produce tallies exactly equal
// to a single worker's on every policy — not statistically, but field for
// field, because every unit keeps its seed and sub-word, decode consumes no
// randomness and integer counts merge exactly.
func TestPipelineBitExactAllPolicies(t *testing.T) {
	for _, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways,
		core.PolicyEraser, core.PolicyEraserM, core.PolicyOptimal} {
		cfg := Config{Distance: 3, Cycles: 3, P: 3e-3, Shots: 300, Seed: 17,
			Policy: pol, Workers: 1}
		serial := Run(cfg)
		for _, workers := range []int{2, 4} {
			cfg.Workers = workers
			parallel := Run(cfg)
			if serial.LogicalErrors != parallel.LogicalErrors ||
				serial.Shots != parallel.Shots ||
				serial.TruePos != parallel.TruePos || serial.FalsePos != parallel.FalsePos ||
				serial.TrueNeg != parallel.TrueNeg || serial.FalseNeg != parallel.FalseNeg {
				t.Fatalf("%v workers=%d: parallel run diverged from one worker:\n  serial   %+v\n  parallel %+v",
					pol, workers, serial, parallel)
			}
			for r := range serial.LPRTotal {
				if serial.LPRTotal[r] != parallel.LPRTotal[r] {
					t.Fatalf("%v workers=%d: LPR series diverged at round %d",
						pol, workers, r)
				}
			}
		}
	}
}

// TestMeteredRunReportsStageTimes: RunUnitsMeteredCtx attributes each
// worker's time to simulation and decoding and sums it over workers; both
// counters must be positive for a real workload at one worker and at four.
func TestMeteredRunReportsStageTimes(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 3, P: 3e-3, Shots: 640, Seed: 9,
		Policy: core.PolicyEraser}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		tally, m, err := RunUnitsMeteredCtx(context.Background(), cfg, 0, cfg.NumUnits())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if tally.Shots != 640 {
			t.Fatalf("workers=%d: tally shots %d, want 640", workers, tally.Shots)
		}
		if m.SimNS <= 0 || m.DecodeNS <= 0 {
			t.Fatalf("workers=%d: stage metrics not populated: %+v", workers, m)
		}
	}
}
