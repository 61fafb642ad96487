package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRunUnitsCtxAlreadyCancelled: a dead context runs nothing and
// RunUnitsMeteredCtx reports its error; the empty tally is still
// well-formed and mergeable.
func TestRunUnitsCtxAlreadyCancelled(t *testing.T) {
	cfg := Config{Distance: 3, Cycles: 2, P: 2e-3, Seed: 5, Policy: core.PolicyAlways}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, _, err := RunUnitsMeteredCtx(ctx, cfg, 0, 8)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if partial.Covered.Count() != 0 || partial.Shots != 0 {
		t.Fatalf("cancelled run covered %d units, %d shots", partial.Covered.Count(), partial.Shots)
	}
	rest := RunUnits(cfg, 0, 8)
	if err := partial.Merge(rest); err != nil {
		t.Fatalf("empty partial does not merge: %v", err)
	}
	if !reflect.DeepEqual(partial, rest.Clone()) {
		// Merge mutates partial in place; rest is untouched.
		t.Fatal("empty partial + full run != full run")
	}
}

// TestRunUnitsCtxPartialMergeExact is the checkpoint contract behind
// graceful shutdown: however many units a cancelled run completed, running
// the complement separately and merging yields a tally bit-identical to the
// uninterrupted run — a unit either completes and is covered, or never ran.
func TestRunUnitsCtxPartialMergeExact(t *testing.T) {
	const units = 24
	cfg := Config{Distance: 3, Cycles: 2, P: 2e-3, Seed: 17,
		Policy: core.PolicyAlways, Workers: 2}

	// Pick a deadline that usually lands mid-run; every outcome from 0 to
	// all units covered is a valid checkpoint, so nothing here is timing-
	// sensitive for correctness.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	partial, _, _ := RunUnitsMeteredCtx(ctx, cfg, 0, units)

	merged := partial.Clone()
	for u := 0; u < units; u++ {
		if merged.Covered.Contains(u) {
			continue
		}
		if err := merged.Merge(RunUnits(cfg, u, u+1)); err != nil {
			t.Fatalf("merging complement unit %d: %v", u, err)
		}
	}
	full := RunUnits(cfg, 0, units)
	if !reflect.DeepEqual(full, merged) {
		t.Fatalf("checkpoint + complement != full run (partial covered %d):\nfull   %+v\nmerged %+v",
			partial.Covered.Count(), full, merged)
	}
}
