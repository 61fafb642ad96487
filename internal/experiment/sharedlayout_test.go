package experiment

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/surfacecode"
)

// layoutFingerprint hashes every field of the shared distance-d layout, so
// a write anywhere into it or into a slice it holds changes the hash.
func layoutFingerprint(d int) [32]byte {
	return sha256.Sum256(fmt.Appendf(nil, "%#v", *surfacecode.MustNew(d)))
}

// TestRunsLeaveSharedLayoutsUnchanged: every run of a distance reads the
// one layout surfacecode.New keeps for it, so no run may write to it. Every
// policy × protocol × basis, plus a drift profile, runs at d=3, 5 and 7
// through RunUnits at two workers and through RunScalar, and the three
// layouts hash the same afterwards.
func TestRunsLeaveSharedLayoutsUnchanged(t *testing.T) {
	dists := []int{3, 5, 7}
	before := map[int][32]byte{}
	for _, d := range dists {
		before[d] = layoutFingerprint(d)
	}
	for _, d := range dists {
		var cfgs []Config
		for _, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways, core.PolicyEraser,
			core.PolicyEraserM, core.PolicyOptimal} {
			for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
				for _, basis := range []surfacecode.Kind{surfacecode.KindZ, surfacecode.KindX} {
					cfgs = append(cfgs, Config{Distance: d, Rounds: 3, P: 3e-3, Shots: 16, Seed: 5,
						Policy: pol, Protocol: proto, Basis: basis, Workers: 2})
				}
			}
		}
		cfgs = append(cfgs, Config{Distance: d, Rounds: 3, Profile: driftProfile(t, d, 3e-3, 0.5, 3),
			Shots: 16, Seed: 5, Policy: core.PolicyEraser, Workers: 2})
		for _, cfg := range cfgs {
			RunUnits(cfg, 0, 2*BlockUnits)
			RunScalar(cfg, nil)
		}
	}
	for _, d := range dists {
		if layoutFingerprint(d) != before[d] {
			t.Errorf("d=%d: a run wrote to the shared layout", d)
		}
	}
}

// TestSharedLayoutConcurrentRuns: four goroutines run four different d=5
// configs at once, all reading the one d=5 layout, and each gets the tally
// it gets alone. Under -race this catches a write to the layout, or to
// anything else concurrent runs share.
func TestSharedLayoutConcurrentRuns(t *testing.T) {
	const d, units = 5, 2 * BlockUnits
	cfgs := []Config{
		{Distance: d, Rounds: 5, P: 3e-3, Seed: 1, Policy: core.PolicyAlways},
		{Distance: d, Rounds: 5, P: 3e-3, Seed: 2, Policy: core.PolicyEraser,
			Protocol: circuit.ProtocolDQLR, Basis: surfacecode.KindX},
		{Distance: d, Rounds: 5, P: 3e-3, Seed: 3, Policy: core.PolicyEraserM},
		{Distance: d, Rounds: 5, Profile: driftProfile(t, d, 3e-3, 0.5, 4), Seed: 4,
			Policy: core.PolicyOptimal},
	}
	want := make([]*Tally, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Workers = 1
		want[i] = RunUnits(cfg, 0, units)
	}
	before := layoutFingerprint(d)
	got := make([]*Tally, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg.Workers = 2
			got[i] = RunUnits(cfg, 0, units)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("config %d: concurrent tally %+v, alone %+v", i, got[i], want[i])
		}
	}
	if layoutFingerprint(d) != before {
		t.Error("a concurrent run wrote to the shared layout")
	}
}

// staticPlansFingerprint hashes what every static policy of distance d
// plans in rounds 1 to 4, which covers each of its plans: the LRCs, the
// planned data qubits and the compiled sequence a builder serves, and the
// distance's final measurement. A write to any of them changes the hash.
func staticPlansFingerprint(d int) [32]byte {
	l := surfacecode.MustNew(d)
	b := circuit.NewBuilder(l)
	h := sha256.New()
	for _, k := range []core.Kind{core.PolicyNone, core.PolicyAlways} {
		for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
			pol := core.NewPolicy(k, l, proto)
			for r := 1; r <= 4; r++ {
				plan := pol.PlanRound(r)
				fmt.Fprint(h, plan.LRCs, plan.Protocol, plan.CondReturn, b.Round(plan))
				for q := 0; q < l.NumData; q++ {
					fmt.Fprint(h, pol.PlannedLRC(q))
				}
			}
		}
	}
	fmt.Fprint(h, b.FinalMeasurement())
	return [32]byte(h.Sum(nil))
}

// staticConfigs returns every static policy × protocol × basis at distance
// d, on two workers.
func staticConfigs(d int) []Config {
	var cfgs []Config
	for _, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways} {
		for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
			for _, basis := range []surfacecode.Kind{surfacecode.KindZ, surfacecode.KindX} {
				cfgs = append(cfgs, Config{Distance: d, Rounds: 4, P: 3e-3, Shots: 16, Seed: 5,
					Policy: pol, Protocol: proto, Basis: basis, Workers: 2})
			}
		}
	}
	return cfgs
}

// TestRunsLeaveSharedStaticPlansUnchanged: every static run of a distance
// reads the compiled plans core keeps for it and the final measurement
// circuit keeps, so no run may write to them. Every static config at d=3,
// 5 and 7 runs through RunUnits at two workers and through RunScalar, and
// the plans hash the same afterwards.
func TestRunsLeaveSharedStaticPlansUnchanged(t *testing.T) {
	dists := []int{3, 5, 7}
	before := map[int][32]byte{}
	for _, d := range dists {
		before[d] = staticPlansFingerprint(d)
	}
	for _, d := range dists {
		for _, cfg := range staticConfigs(d) {
			RunUnits(cfg, 0, 2*BlockUnits)
			RunScalar(cfg, nil)
		}
	}
	for _, d := range dists {
		if staticPlansFingerprint(d) != before[d] {
			t.Errorf("d=%d: a run wrote to the shared static plans", d)
		}
	}
}

// TestSharedStaticPlansConcurrentRuns: NoLRC and Always under both
// protocols run at once at d=5, four goroutines reading the compiled plans
// of one distance, and each gets the tally it gets alone. Under -race this
// catches a write to a shared plan, its sequence or its planned qubits.
func TestSharedStaticPlansConcurrentRuns(t *testing.T) {
	const d, units = 5, 2 * BlockUnits
	cfgs := []Config{
		{Distance: d, Rounds: 5, P: 3e-3, Seed: 1, Policy: core.PolicyNone},
		{Distance: d, Rounds: 5, P: 3e-3, Seed: 2, Policy: core.PolicyNone, Protocol: circuit.ProtocolDQLR,
			Basis: surfacecode.KindX},
		{Distance: d, Rounds: 5, P: 3e-3, Seed: 3, Policy: core.PolicyAlways},
		{Distance: d, Rounds: 5, P: 3e-3, Seed: 4, Policy: core.PolicyAlways, Protocol: circuit.ProtocolDQLR},
	}
	want := make([]*Tally, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Workers = 1
		want[i] = RunUnits(cfg, 0, units)
	}
	before := staticPlansFingerprint(d)
	got := make([]*Tally, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg.Workers = 2
			got[i] = RunUnits(cfg, 0, units)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("config %d: concurrent tally %+v, alone %+v", i, got[i], want[i])
		}
	}
	if staticPlansFingerprint(d) != before {
		t.Error("a concurrent run wrote to the shared static plans")
	}
}
