package experiment

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// mergeSingleUnits runs units [lo, hi) one at a time — a single unit never
// fills a 4-unit block, so each run is a partial block with three absent
// sub-words by construction — and merges the tallies.
func mergeSingleUnits(t *testing.T, cfg Config, lo, hi int) *Tally {
	t.Helper()
	merged := RunUnits(cfg, lo, lo+1)
	for b := lo + 1; b < hi; b++ {
		if err := merged.Merge(RunUnits(cfg, b, b+1)); err != nil {
			t.Fatalf("merge unit %d: %v", b, err)
		}
	}
	return merged
}

// TestWideBitExactAllPolicies: a 256-lane run over an aligned 4-unit block
// produces a Tally bit-identical to the merge of four single-unit runs, each
// a partial block, for every policy and for uniform and heterogeneous
// (hotspot, drift) device profiles. This is the end-to-end statement of the
// block engine's contract: the work unit stays 64 lanes, so stored tallies
// and covered-unit bitsets do not depend on how units group into blocks.
func TestWideBitExactAllPolicies(t *testing.T) {
	hotspot, err := device.Hotspot(3, 2e-3, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := device.Drift(3, 2e-3, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	profiles := []struct {
		name string
		prof *device.Profile
	}{
		{"uniform", nil},
		{"hotspot", hotspot},
		{"drift", drift},
	}
	for _, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways,
		core.PolicyEraser, core.PolicyEraserM, core.PolicyOptimal} {
		for _, pr := range profiles {
			cfg := Config{Distance: 3, Cycles: 3, P: 2e-3, Seed: 9,
				Policy: pol, Profile: pr.prof, Workers: 1}

			wide, m, err := RunUnitsMeteredCtx(context.Background(), cfg, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if m.WideUnits != 4 || m.NarrowUnits != 0 {
				t.Fatalf("%v/%s: aligned block ran %d whole-block + %d partial-block units, want 4 + 0",
					pol, pr.name, m.WideUnits, m.NarrowUnits)
			}
			single := mergeSingleUnits(t, cfg, 0, 4)
			if !reflect.DeepEqual(wide, single) {
				t.Fatalf("%v/%s: block tally differs from merged single units:\nblock  %+v\nsingle %+v",
					pol, pr.name, wide, single)
			}
		}
	}
}

// TestWidePartialBlockRange: a unit range that is not block-aligned at either
// end runs its full interior blocks whole and its ragged edges as partial
// blocks, and the combined tally still matches the merge of single-unit runs
// at every worker count.
func TestWidePartialBlockRange(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 3, P: 2e-3, Seed: 9,
		Policy: core.PolicyEraser}
	single := mergeSingleUnits(t, cfg, 2, 12)
	for _, workers := range []int{1, 2, 3} {
		cfg.Workers = workers
		// Units [2, 12): block 0 contributes ragged units 2-3, blocks 1-2 are
		// full (units 4-11 wide).
		wide, m, err := RunUnitsMeteredCtx(context.Background(), cfg, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		if m.WideUnits != 8 || m.NarrowUnits != 2 {
			t.Fatalf("workers=%d: partial range ran %d whole-block + %d partial-block units, want 8 + 2",
				workers, m.WideUnits, m.NarrowUnits)
		}
		if !reflect.DeepEqual(wide, single) {
			t.Fatalf("workers=%d: partial-range tally differs from merged single units:\nrange  %+v\nsingle %+v",
				workers, wide, single)
		}
	}
}
