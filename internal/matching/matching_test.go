package matching

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// tableInstance tabulates a symmetric weight function into an instance.
func tableInstance(n int, pair func(i, j int) float64, bound func(i int) float64) Instance {
	inst := Instance{N: n, Pair: make([]float64, n*n), Boundary: make([]float64, n)}
	for i := 0; i < n; i++ {
		inst.Boundary[i] = bound(i)
		for j := i + 1; j < n; j++ {
			w := pair(i, j)
			inst.Pair[i*n+j], inst.Pair[j*n+i] = w, w
		}
	}
	return inst
}

// randomInstance builds an instance with symmetric random weights.
func randomInstance(rng *rand.Rand, n int) Instance {
	inst := Instance{N: n, Pair: make([]float64, n*n), Boundary: make([]float64, n)}
	for i := 0; i < n; i++ {
		inst.Boundary[i] = rng.Float64() * 4
		for j := i + 1; j < n; j++ {
			w := rng.Float64() * 4
			inst.Pair[i*n+j], inst.Pair[j*n+i] = w, w
		}
	}
	return inst
}

// bruteForce enumerates every matching recursively (n <= 8).
func bruteForce(inst Instance) float64 {
	var rec func(mask int) float64
	memo := map[int]float64{}
	rec = func(mask int) float64 {
		if mask == 0 {
			return 0
		}
		if v, ok := memo[mask]; ok {
			return v
		}
		i := 0
		for mask&(1<<i) == 0 {
			i++
		}
		best := inst.Boundary[i] + rec(mask&^(1<<i))
		for j := i + 1; j < inst.N; j++ {
			if mask&(1<<j) != 0 {
				if w := inst.Pair[i*inst.N+j] + rec(mask&^(1<<i)&^(1<<j)); w < best {
					best = w
				}
			}
		}
		memo[mask] = best
		return best
	}
	return rec((1 << inst.N) - 1)
}

func validMatching(t *testing.T, inst Instance, r Result) {
	t.Helper()
	if len(r.Mate) != inst.N {
		t.Fatalf("matching covers %d of %d events", len(r.Mate), inst.N)
	}
	for i, j := range r.Mate {
		if j == Boundary {
			continue
		}
		if j < 0 || j >= inst.N || r.Mate[j] != i || j == i {
			t.Fatalf("invalid mate structure at %d -> %d", i, j)
		}
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := rng.IntN(9)
		inst := randomInstance(rng, n)
		got := Exact(inst)
		validMatching(t, inst, got)
		want := bruteForce(inst)
		if math.Abs(got.Weight-want) > 1e-9 {
			t.Fatalf("n=%d: Exact weight %v, brute force %v", n, got.Weight, want)
		}
	}
}

func TestGreedyAndRefineBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		n := rng.IntN(13)
		inst := randomInstance(rng, n)
		exact := Exact(inst)
		greedy := Greedy(inst)
		refined := Refine(inst, greedy, 16)
		validMatching(t, inst, greedy)
		validMatching(t, inst, refined)
		if greedy.Weight < exact.Weight-1e-9 {
			t.Fatalf("greedy beat exact: %v < %v", greedy.Weight, exact.Weight)
		}
		if refined.Weight < exact.Weight-1e-9 {
			t.Fatalf("refined beat exact: %v < %v", refined.Weight, exact.Weight)
		}
		if refined.Weight > greedy.Weight+1e-9 {
			t.Fatalf("refinement made matching worse: %v > %v", refined.Weight, greedy.Weight)
		}
	}
}

// TestRefineFixesCrossedPairs: a classic 2-opt case the greedy matcher gets
// wrong — two nested pairs where swapping partners wins.
func TestRefineFixesCrossedPairs(t *testing.T) {
	// Events on a line at 0, 1, 2, 3; pair cost = distance; boundary = 100.
	pos := []float64{0, 1, 2, 3}
	inst := tableInstance(4,
		func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) },
		func(i int) float64 { return 100 })
	// Force a bad start: (0,2) and (1,3) cost 4; optimal (0,1),(2,3) cost 2.
	bad := Result{Mate: []int{2, 3, 0, 1}, Weight: 4}
	ref := Refine(inst, bad, 8)
	if math.Abs(ref.Weight-2) > 1e-9 {
		t.Fatalf("refined weight %v, want 2", ref.Weight)
	}
}

func TestSolveSmallUsesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	inst := randomInstance(rng, 10)
	if got, want := Solve(inst).Weight, Exact(inst).Weight; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Solve weight %v, exact %v", got, want)
	}
}

func TestSolveLargeIsValidAndReasonable(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	inst := randomInstance(rng, 60)
	res := Solve(inst)
	validMatching(t, inst, res)
	greedy := Greedy(inst)
	if res.Weight > greedy.Weight+1e-9 {
		t.Fatalf("Solve (%v) worse than plain greedy (%v)", res.Weight, greedy.Weight)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if r := Solve(Instance{N: 0}); len(r.Mate) != 0 || r.Weight != 0 {
		t.Fatal("empty instance mishandled")
	}
	// The diagonal is never read, so a NaN there cannot reach the weight.
	inst := Instance{N: 1, Pair: []float64{math.NaN()}, Boundary: []float64{2.5}}
	r := Solve(inst)
	if r.Mate[0] != Boundary || math.Abs(r.Weight-2.5) > 1e-12 {
		t.Fatalf("single event mishandled: %+v", r)
	}
}

// TestExactPairBeatsBoundary: two nearby events pair up rather than each
// paying a large boundary cost.
func TestExactPairBeatsBoundary(t *testing.T) {
	inst := Instance{N: 2, Pair: []float64{0, 1, 1, 0}, Boundary: []float64{10, 10}}
	r := Exact(inst)
	if r.Mate[0] != 1 || r.Mate[1] != 0 || r.Weight != 1 {
		t.Fatalf("expected pairing, got %+v", r)
	}
}

// TestExactBoundaryBeatsPair: two far-apart events each take the boundary.
func TestExactBoundaryBeatsPair(t *testing.T) {
	inst := Instance{N: 2, Pair: []float64{0, 10, 10, 0}, Boundary: []float64{1, 1}}
	r := Exact(inst)
	if r.Mate[0] != Boundary || r.Mate[1] != Boundary || r.Weight != 2 {
		t.Fatalf("expected double boundary, got %+v", r)
	}
}

// TestQuickExactOptimality: property-based check that Exact never loses to
// 50 random valid matchings of the same instance.
func TestQuickExactOptimality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 9)
		rng := rand.New(rand.NewPCG(seed, 99))
		inst := randomInstance(rng, n)
		opt := Exact(inst).Weight
		for trial := 0; trial < 50; trial++ {
			mate := randomValidMatching(rng, n)
			if w := inst.weight(mate); w < opt-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func randomValidMatching(rng *rand.Rand, n int) []int {
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -2
	}
	order := rng.Perm(n)
	for _, i := range order {
		if mate[i] != -2 {
			continue
		}
		// Collect free partners.
		var free []int
		for j := i + 1; j < n; j++ {
			if mate[j] == -2 {
				free = append(free, j)
			}
		}
		if len(free) > 0 && rng.IntN(2) == 0 {
			j := free[rng.IntN(len(free))]
			mate[i], mate[j] = j, i
		} else {
			mate[i] = Boundary
		}
	}
	return mate
}
