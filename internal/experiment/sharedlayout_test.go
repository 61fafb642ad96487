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
