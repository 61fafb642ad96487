package experiment

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/device"
	"repro/internal/surfacecode"
)

func uniformProfile(t *testing.T, d int, p float64) *device.Profile {
	t.Helper()
	prof, err := device.Uniform(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func driftProfile(t *testing.T, d int, p, sigma float64, seed uint64) *device.Profile {
	t.Helper()
	prof, err := device.Drift(d, p, sigma, seed)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func hotspotProfile(t *testing.T, d int, p float64, k int, factor float64) *device.Profile {
	t.Helper()
	prof, err := device.Hotspot(d, p, k, factor)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// resultsEqual compares every statistic the tally accumulates.
func resultsEqual(t *testing.T, name string, a, b Result) {
	t.Helper()
	if a.LogicalErrors != b.LogicalErrors || a.Shots != b.Shots ||
		a.TruePos != b.TruePos || a.FalsePos != b.FalsePos ||
		a.TrueNeg != b.TrueNeg || a.FalseNeg != b.FalseNeg ||
		a.LRCsPerRound != b.LRCsPerRound {
		t.Fatalf("%s: results differ:\n  %+v\n  %+v", name, a, b)
	}
	for r := range a.LPRTotal {
		if a.LPRTotal[r] != b.LPRTotal[r] {
			t.Fatalf("%s: LPR series diverged at round %d: %v vs %v",
				name, r, a.LPRTotal[r], b.LPRTotal[r])
		}
	}
}

// TestUniformProfileBitExact is the tentpole acceptance test: a Uniform(p)
// device profile must reproduce the profile-free scalar-Params path bit for
// bit at matched seeds — same Config.Key, same RNG streams, identical
// tallies — on all three engine paths (shared-plan batch, lane-masked batch,
// and RunScalar).
func TestUniformProfileBitExact(t *testing.T) {
	scalar := func(cfg Config) Result { return RunScalar(cfg, nil) }
	for _, tc := range []struct {
		name string
		pol  core.Kind
		run  func(Config) Result
	}{
		{"always-batch", core.PolicyAlways, Run},
		{"none-batch", core.PolicyNone, Run},
		{"eraser-lane-masked", core.PolicyEraser, Run},
		{"eraserM-lane-masked", core.PolicyEraserM, Run},
		{"optimal-lane-masked", core.PolicyOptimal, Run},
		{"eraser-scalar", core.PolicyEraser, scalar},
		{"always-scalar", core.PolicyAlways, scalar},
	} {
		plain := Config{Distance: 3, Cycles: 3, P: 2e-3, Shots: 200, Seed: 11,
			Policy: tc.pol, Workers: 2}
		prof := plain
		prof.Profile = uniformProfile(t, 3, 2e-3)

		if kp, kf := plain.Key(), prof.Key(); kp != kf {
			t.Fatalf("%s: uniform profile changed Config.Key: %s vs %s", tc.name, kp, kf)
		}
		resultsEqual(t, tc.name, tc.run(plain), tc.run(prof))
	}
}

// TestHeterogeneousProfileSeparates: a hotspot profile must produce a
// different Config.Key and different shots (independent RNG streams) than
// the uniform config it elaborates.
func TestHeterogeneousProfileSeparates(t *testing.T) {
	plain := Config{Distance: 3, Cycles: 3, P: 2e-3, Shots: 300, Seed: 11,
		Policy: core.PolicyAlways}
	hot := plain
	hot.Profile = hotspotProfile(t, 3, 2e-3, 2, 10)

	kp, kh := plain.Key(), hot.Key()
	if kp == kh {
		t.Fatal("hotspot profile did not change Config.Key")
	}
	// Distinct factors key separately too.
	hot2 := plain
	hot2.Profile = hotspotProfile(t, 3, 2e-3, 2, 5)
	k2 := hot2.Key()
	if k2 == kh || k2 == kp {
		t.Fatal("hotspot factors alias in Config.Key")
	}
	if configStream(plain) == configStream(hot) {
		t.Fatal("hotspot profile shares the uniform config's RNG stream")
	}

	// The hotspots inject ~10x the leakage on 2 of 9 data qubits: the mean
	// leakage population must rise well outside Monte-Carlo noise.
	rp := Run(plain)
	rh := Run(hot)
	if rh.MeanLPR() <= rp.MeanLPR() {
		t.Errorf("hotspot profile did not raise leakage population: %v vs %v",
			rh.MeanLPR(), rp.MeanLPR())
	}
}

// TestProfileEngineAgreement: at a heterogeneous profile the batch and
// scalar engines must still agree statistically — the per-site threading is
// exercised end to end on both.
func TestProfileEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	overlap := func(al, ah, bl, bh float64) bool { return al <= bh && bl <= ah }
	for _, pol := range []core.Kind{core.PolicyAlways, core.PolicyEraser} {
		cfg := Config{Distance: 3, Cycles: 4, P: 3e-3, Shots: 4000, Seed: 42,
			Policy: pol}
		cfg.Profile = hotspotProfile(t, 3, 3e-3, 2, 6)
		bat := Run(cfg)
		sca := RunScalar(cfg, nil)
		t.Logf("%v: batch LER %.4f [%.4f, %.4f], scalar LER %.4f [%.4f, %.4f]",
			pol, bat.LER, bat.LERLow, bat.LERHigh, sca.LER, sca.LERLow, sca.LERHigh)
		if !overlap(bat.LERLow, bat.LERHigh, sca.LERLow, sca.LERHigh) {
			t.Errorf("%v: batch and scalar LER intervals disjoint under profile", pol)
		}
		if r := bat.MeanLPR() / sca.MeanLPR(); r < 0.5 || r > 2 {
			t.Errorf("%v: batch/scalar LPR ratio %v outside [0.5, 2]", pol, r)
		}
	}
}

// TestProfileDeterministicAcrossWorkers: heterogeneous units stay seeded per
// unit, so worker count must not change any counter.
func TestProfileDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 3, P: 2e-3, Shots: 1000, Seed: 5,
		Policy: core.PolicyEraser}
	cfg.Profile = hotspotProfile(t, 3, 2e-3, 2, 8)
	requireWorkerInvariant(t, "hotspot", cfg)
}

// TestHeterogeneityUniformEndpoint: the factor-1 point of the heterogeneity
// sweep is the uniform model, so it must agree with the plain Figure 14
// configuration at the same distance — bit-exactly, since the profile
// canonicalizes away.
func TestHeterogeneityUniformEndpoint(t *testing.T) {
	o := Options{Shots: 256, Seed: 2023, P: 2e-3, Cycles: 2, Distance: 3,
		HotspotFactors: []float64{1, 6}, HotspotQubits: 2}
	s := Heterogeneity(o)
	if len(s.Factors) != 2 || len(s.Names) != 5 {
		t.Fatalf("sweep shape: %d factors, %d policies", len(s.Factors), len(s.Names))
	}
	o = o.filled(3)
	for i, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways,
		core.PolicyEraser, core.PolicyEraserM, core.PolicyOptimal} {
		res := Run(o.config(3, o.Cycles, pol))
		if s.LER[i][0] != res.LER {
			t.Errorf("%s: uniform endpoint LER %v != plain run %v",
				s.Names[i], s.LER[i][0], res.LER)
		}
		// Wilson agreement is implied by equality; check the interval is sane.
		if s.LERLow[i][0] > res.LER || s.LERHigh[i][0] < res.LER {
			t.Errorf("%s: LER outside its own Wilson interval", s.Names[i])
		}
	}
}

// TestProfileValidation: configs with malformed profiles are rejected before
// any simulation.
func TestProfileValidation(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 2, P: 1e-3, Shots: 10, Seed: 1,
		Policy: core.PolicyAlways}
	cfg.Profile = hotspotProfile(t, 5, 1e-3, 2, 4) // wrong distance
	if err := cfg.Validate(); err == nil {
		t.Error("distance-mismatched profile passed Validate")
	}
	cfg.Profile = hotspotProfile(t, 3, 1e-3, 2, 4)
	cfg.Profile.P[0] = 2 // not a probability
	if err := cfg.Validate(); err == nil {
		t.Error("invalid profile rate passed Validate")
	}
}

// TestValidateDecoderConfig: Validate rejects decoder settings that would
// crash a worker (a per-site weight vector of the wrong length) and
// negative or non-finite weights; the zero config, explicit per-site priors
// of the right shape and heterogeneous-profile configs still validate.
func TestValidateDecoderConfig(t *testing.T) {
	const d = 5
	l := surfacecode.MustNew(d)
	ones := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	with := func(i int, v float64, w []float64) []float64 {
		w[i] = v
		return w
	}
	rates, err := hotspotProfile(t, d, 1e-3, 2, 6).Resolve(l)
	if err != nil {
		t.Fatal(err)
	}
	space, timeW := rates.DecoderPriors(l)
	base := Config{Distance: d, Cycles: 2, P: 1e-3, Shots: 64, Seed: 1, Policy: core.PolicyEraser}

	bad := map[string]decoder.Config{
		"space weights short":   {SpaceWeights: ones(l.NumData - 1)},
		"space weights long":    {SpaceWeights: ones(l.NumData + 1)},
		"space weights empty":   {SpaceWeights: []float64{}},
		"time weights short":    {TimeWeights: ones(len(l.Stabilizers) - 1)},
		"time weights long":     {TimeWeights: ones(len(l.Stabilizers) + 1)},
		"space weight negative": {SpaceWeights: with(3, -1, ones(l.NumData))},
		"space weight NaN":      {SpaceWeights: with(0, math.NaN(), ones(l.NumData))},
		"space weight +Inf":     {SpaceWeights: with(l.NumData-1, math.Inf(1), ones(l.NumData))},
		"time weight negative":  {TimeWeights: with(2, -0.5, ones(len(l.Stabilizers)))},
		"time weight NaN":       {TimeWeights: with(1, math.NaN(), ones(len(l.Stabilizers)))},
	}
	for name, dc := range bad {
		cfg := base
		cfg.Decoder = dc
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: passed Validate", name)
		}
	}

	good := map[string]func(*Config){
		"zero decoder config": func(*Config) {},
		"explicit priors":     func(c *Config) { c.Decoder = decoder.Config{SpaceWeights: space, TimeWeights: timeW} },
		"hotspot profile":     func(c *Config) { c.Profile = hotspotProfile(t, d, 1e-3, 2, 6) },
		"drift profile":       func(c *Config) { c.Profile = driftProfile(t, d, 1e-3, 0.5, 11) },
		"profile and priors": func(c *Config) {
			c.Profile = hotspotProfile(t, d, 1e-3, 2, 6)
			c.Decoder = decoder.Config{SpaceWeights: space, TimeWeights: timeW}
		},
	}
	for name, set := range good {
		cfg := base
		set(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
