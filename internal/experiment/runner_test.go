package experiment

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
)

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 3, P: 1e-3, Shots: 100, Seed: 5,
		Policy: core.PolicyEraser, Workers: 1}
	a := Run(cfg)
	b := Run(cfg)
	if a.LogicalErrors != b.LogicalErrors || a.LRCsPerRound != b.LRCsPerRound ||
		a.TruePos != b.TruePos || a.FalseNeg != b.FalseNeg {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for r := range a.LPRTotal {
		if a.LPRTotal[r] != b.LPRTotal[r] {
			t.Fatalf("LPR series diverged at round %d", r)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 5, P: 3e-3, Shots: 200, Seed: 5,
		Policy: core.PolicyNone, Workers: 1}
	a := Run(cfg)
	cfg.Seed = 6
	b := Run(cfg)
	if a.LogicalErrors == b.LogicalErrors && sameSeries(a.LPRTotal, b.LPRTotal) {
		t.Fatal("different seeds produced identical runs")
	}
}

func sameSeries(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConfigStreamSeparatesNoiseFields: configs differing in any single
// noise field must get distinct RNG streams under a shared seed. Before the
// Float64bits fix, PSeep/PTransport/PMultiLevelError were skipped entirely
// and P/PLeak went through a lossy uint64(f*1e12) truncation, handing such
// configs byte-identical random streams.
func TestConfigStreamSeparatesNoiseFields(t *testing.T) {
	base := Config{Distance: 3, Cycles: 3, P: 1e-3, Shots: 1, Seed: 7,
		Policy: core.PolicyNone}
	streams := map[uint64]string{configStream(base): "base"}
	record := func(name string, mutate func(*noise.Params)) {
		np := noise.Standard(base.P)
		mutate(&np)
		cfg := base
		cfg.Noise = &np
		h := configStream(cfg)
		if prev, dup := streams[h]; dup {
			t.Errorf("%s collides with %s: identical RNG stream %#x", name, prev, h)
		}
		streams[h] = name
	}
	record("pseep", func(n *noise.Params) { n.PSeep *= 2 })
	record("ptransport", func(n *noise.Params) { n.PTransport = 0.2 })
	record("pml", func(n *noise.Params) { n.PMultiLevelError *= 2 })
	record("pleak", func(n *noise.Params) { n.PLeak *= 2 })
	// Sub-picoscale differences were erased by the old 1e12 truncation.
	record("tiny-p", func(n *noise.Params) { n.P = 1e-3 + 1e-15 })
}

// TestParallelWorkersMatchSerialCounts: a static run spanning four blocks
// with a shot-capped last unit tallies identically at every worker count.
func TestParallelWorkersMatchSerialCounts(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 3, P: 1e-3, Shots: 1000, Seed: 9,
		Policy: core.PolicyAlways}
	requireWorkerInvariant(t, "always", cfg)
}

// TestRunUnitsWarmAllocs: a second RunUnits call on the decode-bound
// Figure-14 point (d=7, 7 cycles, p=1e-3, Always; 16 units on one worker)
// reuses the decoder table's scratch arenas and unit collectors that the
// first call grew, so it allocates only the per-call engine set-up. The
// bound sits far above that (~100 B/shot) and far below the ~1,070 B/shot
// of a run that regrows its decode buffers from empty.
func TestRunUnitsWarmAllocs(t *testing.T) {
	cfg := Config{Distance: 7, Cycles: 7, P: 1e-3, Seed: 2023, Policy: core.PolicyAlways, Workers: 1}
	const units, maxPerShot = 16, 300
	RunUnits(cfg, 0, units)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tally := RunUnits(cfg, 0, units)
	runtime.ReadMemStats(&m1)
	perShot := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(tally.Shots)
	t.Logf("warm RunUnits: %.1f B/shot over %d shots", perShot, tally.Shots)
	if perShot > maxPerShot {
		t.Fatalf("warm RunUnits allocates %.1f B/shot, want <= %d", perShot, maxPerShot)
	}
}

// requireWorkerInvariant runs cfg's shot-capped unit range, as Run does, at
// Workers 1 through 4 and fails unless every run covers every unit and shot
// and every tally equals the single-worker one field for field. cfg must
// span at least four blocks and cut its last unit, so every worker count
// above one can claim blocks and a partial block is among them.
func requireWorkerInvariant(t *testing.T, name string, cfg Config) {
	t.Helper()
	units := cfg.NumUnits()
	if units <= 3*BlockUnits || cfg.Shots%cfg.UnitShots() == 0 {
		t.Fatalf("%s: %d shots must span at least 4 blocks and cut the last unit", name, cfg.Shots)
	}
	var want *Tally
	for _, workers := range []int{1, 2, 3, 4} {
		cfg.Workers = workers
		got, _ := runUnitRange(context.Background(), cfg, 0, units, cfg.Shots)
		if got.Shots != cfg.Shots || got.Covered.Count() != units {
			t.Fatalf("%s workers=%d: tally covers %d shots in %d units, want %d in %d",
				name, workers, got.Shots, got.Covered.Count(), cfg.Shots, units)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: workers=%d tally differs from workers=1:\n  1: %+v\n  %d: %+v",
				name, workers, want, workers, got)
		}
	}
}

func TestDecisionAccounting(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 2, P: 1e-3, Shots: 50, Seed: 3,
		Policy: core.PolicyAlways, Workers: 1}
	res := Run(cfg)
	total := res.TruePos + res.FalsePos + res.TrueNeg + res.FalseNeg
	want := int64(50) * int64(res.Rounds) * int64(9)
	if total != want {
		t.Fatalf("decision count %d, want %d", total, want)
	}
	// Always-LRC decides "LRC" about half the time regardless of leakage, so
	// accuracy sits near 50% (Figure 16).
	if acc := res.Accuracy(); acc < 0.4 || acc > 0.6 {
		t.Fatalf("Always accuracy %v, want ~0.5", acc)
	}
}

func TestLERDecreasesWithDistanceWithoutLeakage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	np := noise.WithoutLeakage(5e-4)
	ler := func(d int) float64 {
		return Run(Config{Distance: d, Cycles: 2, Noise: &np, Shots: 1500,
			Seed: 21, Policy: core.PolicyNone, Workers: 0}).LER
	}
	l3, l5 := ler(3), ler(5)
	if l5 >= l3 {
		t.Fatalf("LER did not shrink with distance: d3=%v d5=%v", l3, l5)
	}
}

func TestWilsonIntervalAttached(t *testing.T) {
	res := Run(Config{Distance: 3, Cycles: 2, P: 1e-3, Shots: 100, Seed: 2,
		Policy: core.PolicyNone, Workers: 1})
	if res.LERLow > res.LER || res.LERHigh < res.LER {
		t.Fatalf("CI [%v, %v] does not bracket LER %v", res.LERLow, res.LERHigh, res.LER)
	}
}

func TestRoundsOverride(t *testing.T) {
	res := Run(Config{Distance: 3, Rounds: 7, P: 1e-3, Shots: 10, Seed: 1,
		Policy: core.PolicyNone, Workers: 1})
	if res.Rounds != 7 || len(res.LPRTotal) != 7 {
		t.Fatalf("rounds override ignored: %d rounds, %d LPR entries",
			res.Rounds, len(res.LPRTotal))
	}
}

func TestMeanLPRAndRatios(t *testing.T) {
	res := Result{LPRTotal: []float64{0.1, 0.3}}
	if got := res.MeanLPR(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("MeanLPR = %v", got)
	}
	empty := Result{}
	if empty.Accuracy() != 0 || empty.FPR() != 0 || empty.FNR() != 0 {
		t.Fatal("zero-division guards failed")
	}
}
