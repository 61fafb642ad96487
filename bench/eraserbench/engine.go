package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim/batch"
)

// chunkUnits is a workload's unit of work: one RunUnitsMeteredCtx call (the
// call the service's scheduler makes per part) over 16 64-shot units.
const (
	chunkUnits = 16
	chunkShots = chunkUnits * batch.Lanes
)

// workload is one named input set: d=7, 7 cycles (49 rounds), MWPM, uniform
// noise, memory-Z, at one policy and physical error rate.
type workload struct {
	name   string
	policy core.Kind
	p      float64
	// rate is the nominal throughput in shots/s on the reference host. Work
	// per rep is rate·seconds/reps, so what a run does depends on -seconds
	// alone, never on host speed.
	rate float64
	// refErrors/refShots are the reference logical-error count and shots
	// the LER check compares against: ten -seconds 10 runs at seeds 1017,
	// 2017, …, 10017 pooled (the "reference" section of BENCH_11.json).
	refErrors, refShots int
}

var workloads = []*workload{
	{name: "always-d7-p1e-3", policy: core.PolicyAlways, p: 1e-3, rate: 20000, refErrors: 21911, refShots: 204800},
	{name: "eraser-d7-p1e-3", policy: core.PolicyEraser, p: 1e-3, rate: 19000, refErrors: 10190, refShots: 194560},
	{name: "always-d7-p1e-4", policy: core.PolicyAlways, p: 1e-4, rate: 125000, refErrors: 2659, refShots: 1249280},
	{name: "eraser-d7-p1e-4", policy: core.PolicyEraser, p: 1e-4, rate: 38000, refErrors: 560, refShots: 378880},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) config(seed uint64) experiment.Config {
	return experiment.Config{Distance: 7, Cycles: 7, P: w.p, Shots: chunkShots, Seed: seed, Policy: w.policy, Workers: 1}
}

// perRep converts the nominal rate into a whole number of chunks for one of
// the reps measured in seconds.
func (w *workload) perRep(seconds float64) int {
	n := int(math.Round(w.rate * seconds / reps / chunkShots))
	return max(n, 1)
}

// runChunk runs one engine chunk, turning a panic into an error.
func runChunk(ctx context.Context, cfg experiment.Config, lo, hi int) (t *experiment.Tally, m experiment.Metrics, err error) {
	err = safely(func() { t, m, err = experiment.RunUnitsMeteredCtx(ctx, cfg, lo, hi) })
	return t, m, err
}

// safely runs f, reporting a panic as an error.
func safely(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}

// setupEngine is a workload's set-up: the first chunk builds the
// layout and decoder tables and faults the engine's working set in.
func setupEngine(ctx context.Context, w *workload, o options) error {
	_, _, err := runChunk(ctx, w.config(o.seed), 0, chunkUnits)
	return err
}

// measureEngine runs reps identical reps of back-to-back 16-unit chunks over
// units [0, 16·chunks), times a fresh set-up before each rep, and checks the
// tallies.
func measureEngine(ctx context.Context, w *workload, o options) (*childResult, error) {
	cfg := w.config(o.seed)
	if err := setupEngine(ctx, w, o); err != nil {
		return nil, fmt.Errorf("warm-up chunk: %w", err)
	}
	chunks := w.perRep(o.seconds)
	res := &childResult{Metrics: map[string]Metric{}}
	var rate, alloc []float64
	var lat [][]float64
	var sums []string
	var tally *experiment.Tally
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		d, err := probeSetup(ctx, w, o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		total := experiment.NewTally(cfg.NumRounds(), cfg.UnitShots())
		repLat := make([]float64, 0, chunks)
		start := time.Now()
		for c := 0; c < chunks; c++ {
			t0 := time.Now()
			t, _, err := runChunk(ctx, cfg, c*chunkUnits, (c+1)*chunkUnits)
			repLat = append(repLat, ms(time.Since(t0)))
			res.OpsTotal++
			if err == nil {
				err = total.Merge(t)
			}
			if err != nil {
				res.OpsFailed++
				fmt.Fprintf(os.Stderr, "%s: chunk %d: %v\n", w.name, c, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		shots := float64(total.Shots)
		rate = append(rate, shots/elapsed.Seconds())
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/shots)
		lat = append(lat, repLat)
		sum, err := tallySum(total)
		if err != nil {
			return nil, err
		}
		sums = append(sums, sum)
		tally = total
	}
	res.Metrics["shots_per_s"] = bestOf("shots/s", rate, true)
	res.Metrics["latency_p50_ms"] = bestPercentileOf("ms", 0.50, lat)
	res.Metrics["alloc_bytes_per_shot"] = medianOf("B/shot", alloc)
	res.Metrics["setup_s"] = bestOf("s", setups, false)
	res.Checks = engineChecks(w, cfg, chunks, sums, tally)
	r := tally.ResultFor(cfg)
	res.Metrics["ler"] = single("ratio", r.LER)
	res.Metrics["accuracy"] = single("ratio", r.Accuracy())
	res.Metrics["lrcs_per_round"] = single("count", r.LRCsPerRound)
	res.Metrics["shots_per_rep"] = single("shots", float64(tally.Shots))
	return res, nil
}

// tallySum is the SHA-256 of the tally's JSON form.
func tallySum(t *experiment.Tally) (string, error) {
	b, err := json.Marshal(t)
	if err != nil {
		return "", fmt.Errorf("tally sum: %w", err)
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:]), nil
}

// engineChecks verifies a workload's outputs: reproducible reps,
// complete shot and decision accounting, an LER consistent with the
// reference, and the policy's expected LRC volume and speculation accuracy.
func engineChecks(w *workload, cfg experiment.Config, chunks int, sums []string, t *experiment.Tally) []Check {
	same := true
	for _, s := range sums {
		same = same && s == sums[0]
	}
	shots := chunks * chunkShots
	rounds := int64(cfg.NumRounds())
	numData := int64(cfg.Distance * cfg.Distance)
	decisions := t.TruePos + t.FalsePos + t.TrueNeg + t.FalseNeg
	r := t.ResultFor(cfg)
	z := twoProportionZ(t.LogicalErrors, t.Shots, w.refErrors, w.refShots)
	checks := []Check{
		{Name: "reps bit-identical", OK: same, Detail: "tally_sha256 " + sums[0]},
		{Name: "shots = units x 64", OK: t.Shots == shots, Detail: fmt.Sprintf("%d shots over %d units", t.Shots, chunks*chunkUnits)},
		{Name: "TP+FP+TN+FN = shots x rounds x data qubits", OK: decisions == int64(shots)*rounds*numData,
			Detail: fmt.Sprintf("%d decisions", decisions)},
		{Name: "LER within |z| <= 4 of reference", OK: math.Abs(z) <= 4,
			Detail: fmt.Sprintf("%d/%d vs %d/%d, z=%+.2f", t.LogicalErrors, t.Shots, w.refErrors, w.refShots, z)},
	}
	acc, lrcs := r.Accuracy(), r.LRCsPerRound
	detail := fmt.Sprintf("accuracy %.4f, %.4f LRCs/round", acc, lrcs)
	switch w.policy {
	case core.PolicyAlways:
		checks = append(checks, Check{Name: "Always: accuracy in [0.45, 0.55], 24 LRCs/round",
			OK: acc >= 0.45 && acc <= 0.55 && t.LRCs == 24*int64(shots)*rounds, Detail: detail})
	case core.PolicyEraser:
		checks = append(checks, Check{Name: "ERASER: accuracy >= 0.95, <= 1.2 LRCs/round",
			OK: acc >= 0.95 && lrcs <= 1.2, Detail: detail})
	}
	return checks
}

// traceEngine is a workload's traced pass: the replica against the
// runner, alternating, with the same work per side as one measured run.
func traceEngine(ctx context.Context, w *workload, o options, tr *tracer) (*childResult, error) {
	pairs := max(w.perRep(o.seconds)*reps/2, minTracePairs)
	m, gates, err := traceLayers(ctx, w.config(o.seed), o.seed, pairs, tr)
	if err != nil {
		return nil, err
	}
	return &childResult{Metrics: m, Gates: gates, OpsTotal: 2 + 2*pairs}, nil
}

// minTracePairs keeps at least 64 replica blocks (16 chunks of 4 blocks) in
// every traced pass.
const minTracePairs = 16
