package matching

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// oracleInstance draws one instance in both forms: the table form and the
// closure form over the same tables. Weights are integers from a small
// range (heavy ties) or uniform floats. With asym set, the lower triangle
// differs from the upper: in the last bit for about half of the pairs (as
// the decoder's Dijkstra tables do under drift priors) and by an
// independent draw for a few. The diagonal holds NaN, which any read would
// carry into a weight.
func oracleInstance(rng *rand.Rand, n int, ints, asym bool) (Instance, refInstance) {
	draw := func() float64 {
		if ints {
			return float64(rng.IntN(4))
		}
		return rng.Float64() * 4
	}
	inst := Instance{N: n, Pair: make([]float64, n*n), Boundary: make([]float64, n)}
	for i := 0; i < n; i++ {
		inst.Pair[i*n+i] = math.NaN()
		inst.Boundary[i] = draw()
		for j := i + 1; j < n; j++ {
			w := draw()
			inst.Pair[i*n+j], inst.Pair[j*n+i] = w, w
			if !asym {
				continue
			}
			switch rng.IntN(16) {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				inst.Pair[j*n+i] = math.Nextafter(w, math.Inf(2*rng.IntN(2)-1))
			case 8:
				inst.Pair[j*n+i] = draw()
			}
		}
	}
	ref := refInstance{
		N:              n,
		PairWeight:     func(i, j int) float64 { return inst.Pair[i*n+j] },
		BoundaryWeight: func(i int) float64 { return inst.Boundary[i] },
	}
	return inst, ref
}

func sameResult(got, want Result) bool {
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) || len(got.Mate) != len(want.Mate) {
		return false
	}
	for i := range want.Mate {
		if got.Mate[i] != want.Mate[i] {
			return false
		}
	}
	return true
}

// TestSolveMatchesReference: on 1e5 seeded instances (1e4 in short mode),
// the table-driven Solve returns the same Mate and the same Weight, bit for
// bit, as the closure-based reference matcher (reference_test.go), whose
// greedy sorts every candidate by the documented order, so Greedy's pruning
// and tie rule are both checked. The instances cover N from 0 to 48,
// integer weights with heavy ties and float weights, pair tables whose
// lower triangle differs from the upper, and MaxExact of 0 (the package
// default), 4 and 12, so both the exact DP and greedy + 2-opt run on both
// sides of every cap. A quarter of the instances draw N uniformly from
// [0, 48], the rest from [0, 16], where the caps sit.
// Workspaces are reused across instances of varying size, as the decoder
// reuses its own.
func TestSolveMatchesReference(t *testing.T) {
	trials := 100_000
	if testing.Short() {
		trials = 10_000
	}
	rng := rand.New(rand.NewPCG(2303, 15933))
	var ws Workspace
	var rws refWorkspace
	for trial := 0; trial < trials; trial++ {
		n := rng.IntN(17)
		if rng.IntN(4) == 0 {
			n = rng.IntN(49)
		}
		ints, asym := rng.IntN(2) == 0, rng.IntN(2) == 0
		inst, ref := oracleInstance(rng, n, ints, asym)
		inst.MaxExact = []int{0, 4, 12}[rng.IntN(3)]
		ref.MaxExact = inst.MaxExact
		want := rws.Solve(ref)
		if got := ws.Solve(inst); !sameResult(got, want) {
			t.Fatalf("trial %d (n=%d ints=%v asym=%v MaxExact=%d): Solve = %v %v, reference %v %v",
				trial, n, ints, asym, inst.MaxExact, got.Mate, got.Weight, want.Mate, want.Weight)
		}
	}
}

// TestExactMatchesReferenceAboveDefault: the reachable-state DP agrees with
// the full-table DP bit for bit up to N=16, past the default cap.
func TestExactMatchesReferenceAboveDefault(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 16))
	var ws Workspace
	var rws refWorkspace
	for trial := 0; trial < 400; trial++ {
		n := 12 + rng.IntN(5)
		inst, ref := oracleInstance(rng, n, trial%2 == 0, true)
		if got, want := ws.Exact(inst), rws.Exact(ref); !sameResult(got, want) {
			t.Fatalf("trial %d (n=%d): Exact = %v %v, reference %v %v", trial, n, got.Mate, got.Weight, want.Mate, want.Weight)
		}
	}
}

// TestExactVisitsReachableStates: the DP writes exactly the F(N+2)-1
// non-empty subsets reachable from the full set, and their transitions
// (one boundary option plus one per later event, |s| per state) total 2,052
// at N=12 against 24,576 for every subset.
func TestExactVisitsReachableStates(t *testing.T) {
	fib := []int{0, 1}
	for len(fib) < 20 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	rng := rand.New(rand.NewPCG(5, 8))
	for n := 1; n <= 14; n++ {
		size := 1 << n
		ws := Workspace{dp: make([]float64, size), choice: make([]int8, size)}
		for i := range ws.dp {
			ws.dp[i] = math.NaN()
		}
		ws.Exact(randomInstance(rng, n))
		states, transitions := 0, 0
		for s := 1; s < size; s++ {
			if !math.IsNaN(ws.dp[s]) {
				states++
				for t := s; t != 0; t &= t - 1 {
					transitions++
				}
			}
		}
		if want := fib[n+2] - 1; states != want {
			t.Errorf("n=%d: DP wrote %d states, want F(%d)-1 = %d", n, states, n+2, want)
		}
		if n == 12 && (states != 376 || transitions != 2052) {
			t.Errorf("n=12: %d states, %d transitions; want 376, 2052", states, transitions)
		}
	}
}

// TestGreedyPairsWithinBounds: every pair (i, j), i < j, that Greedy takes
// costs less than Boundary[i] and at most Boundary[j], the two bounds it
// prunes candidates by. A pair outside them comes after the boundary
// candidate of i or of j in the order, which claims that event first.
func TestGreedyPairsWithinBounds(t *testing.T) {
	var ws Workspace
	f := func(seed uint64, nRaw uint8, ints, asym bool) bool {
		n := int(nRaw % 41)
		inst, _ := oracleInstance(rand.New(rand.NewPCG(seed, 31)), n, ints, asym)
		r := ws.Greedy(inst)
		for i, j := range r.Mate {
			if j == Boundary || j < i {
				continue
			}
			if w := inst.Pair[i*n+j]; !(w < inst.Boundary[i] && w <= inst.Boundary[j]) {
				t.Logf("n=%d: pair (%d, %d) of weight %v, boundary weights %v and %v",
					n, i, j, w, inst.Boundary[i], inst.Boundary[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}
