package matching

import (
	"math/rand/v2"
	"testing"
)

// TestWorkspaceReuseMatchesFresh: one Workspace solving a stream of
// instances of varying size must return the same weights and mates as the
// allocating package-level Solve on fresh state each time.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var ws Workspace
	for trial := 0; trial < 40; trial++ {
		n := rng.IntN(16) // crosses the exact/greedy boundary both ways
		inst := randomInstance(rng, n)
		got := ws.Solve(inst)
		validMatching(t, inst, got)
		want := Solve(inst)
		if got.Weight != want.Weight {
			t.Fatalf("trial %d (n=%d): reused workspace weight %v, fresh %v",
				trial, n, got.Weight, want.Weight)
		}
		for i := range want.Mate {
			if got.Mate[i] != want.Mate[i] {
				t.Fatalf("trial %d (n=%d): mate[%d] = %d, fresh %d",
					trial, n, i, got.Mate[i], want.Mate[i])
			}
		}
	}
}

// TestWorkspaceSteadyStateAllocs: after one warm-up solve, reusing a
// Workspace allocates nothing — on both the exact and the greedy paths.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, n := range []int{8, 20} { // exact path, then greedy+refine path
		inst := randomInstance(rng, n)
		var ws Workspace
		ws.Solve(inst)
		allocs := testing.AllocsPerRun(100, func() { ws.Solve(inst) })
		if allocs != 0 {
			t.Fatalf("n=%d: workspace solve allocates %v per call, want 0", n, allocs)
		}
	}
}

// TestInstanceMaxExact: the per-instance threshold picks the algorithm — at
// or below it Solve is provably optimal; zero falls back to the package
// constant; above it the result is still a valid matching.
func TestInstanceMaxExact(t *testing.T) {
	if MaxExact != 12 {
		t.Fatalf("MaxExact = %d, want 12", MaxExact)
	}
	rng := rand.New(rand.NewPCG(21, 4))
	inst := randomInstance(rng, 8)

	inst.MaxExact = 8
	if got, want := Solve(inst).Weight, bruteForce(inst); got != want {
		t.Fatalf("MaxExact=8: Solve weight %v, exact optimum %v", got, want)
	}

	// Below the threshold the greedy path runs; it must stay valid and can
	// only cost at least the optimum.
	inst.MaxExact = 4
	r := Solve(inst)
	validMatching(t, inst, r)
	if opt := bruteForce(inst); r.Weight < opt-1e-12 {
		t.Fatalf("MaxExact=4: greedy weight %v beats optimum %v", r.Weight, opt)
	}

	// Zero defers to the package-level default, which covers n=8.
	inst.MaxExact = 0
	if got, want := Solve(inst).Weight, bruteForce(inst); got != want {
		t.Fatalf("MaxExact=0 (default %d): Solve weight %v, exact optimum %v",
			MaxExact, got, want)
	}
}
