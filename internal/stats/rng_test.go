package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 7)
	b := NewRNG(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, stream) diverged at draw %d", i)
		}
	}
}

func TestRNGStreamsDiffer(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams look identical: %d/64 equal draws", same)
	}
}

func TestRNGSplitDeterminism(t *testing.T) {
	var a, b RNG
	NewRNG(5, 5).Split(&a, 3)
	NewRNG(5, 5).Split(&b, 3)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// TestRNGSeedInPlace: a used generator reseeded in place replays the
// sequence NewRNG returns for the same pair, and a used child split into
// again replays a fresh child's stream, so a shot loop may reuse one RNG.
func TestRNGSeedInPlace(t *testing.T) {
	var r, used, fresh RNG
	r.Seed(1, 2)
	r.Uint64()
	r.Seed(42, 7)
	NewRNG(5, 5).Split(&used, 1)
	used.Uint64()
	NewRNG(5, 5).Split(&used, 3)
	NewRNG(5, 5).Split(&fresh, 3)
	ref := NewRNG(42, 7)
	for i := 0; i < 50; i++ {
		if r.Uint64() != ref.Uint64() || used.Uint64() != fresh.Uint64() {
			t.Fatalf("reseeded generator diverged at draw %d", i)
		}
	}
}

// TestSplitStreamIndependence: children split off the same parent at
// distinct indexes must behave as independent streams — no identical draws
// beyond chance, bitwise half-distance on average, and no linear correlation
// between their uniform outputs.
func TestSplitStreamIndependence(t *testing.T) {
	child := func(index uint64) *RNG {
		c := &RNG{}
		NewRNG(9, 9).Split(c, index)
		return c
	}
	pairs := [][2]uint64{{1, 2}, {0, 1}, {7, 1 << 40}}
	for _, pr := range pairs {
		a, b := child(pr[0]), child(pr[1])

		const n = 4096
		same, hamming := 0, 0
		var sumA, sumB, sumAB, sumA2, sumB2 float64
		for i := 0; i < n; i++ {
			ua, ub := a.Uint64(), b.Uint64()
			if ua == ub {
				same++
			}
			hamming += bits.OnesCount64(ua ^ ub)
			fa, fb := float64(ua>>11)/(1<<53), float64(ub>>11)/(1<<53)
			sumA += fa
			sumB += fb
			sumAB += fa * fb
			sumA2 += fa * fa
			sumB2 += fb * fb
		}
		if same > 2 {
			t.Fatalf("Split(%d)/Split(%d): %d/%d identical draws", pr[0], pr[1], same, n)
		}
		if mean := float64(hamming) / n; math.Abs(mean-32) > 1 {
			t.Fatalf("Split(%d)/Split(%d): mean XOR popcount %v, want ~32", pr[0], pr[1], mean)
		}
		cov := sumAB/n - (sumA/n)*(sumB/n)
		varA := sumA2/n - (sumA/n)*(sumA/n)
		varB := sumB2/n - (sumB/n)*(sumB/n)
		if corr := cov / math.Sqrt(varA*varB); math.Abs(corr) > 0.06 {
			t.Fatalf("Split(%d)/Split(%d): correlation %v", pr[0], pr[1], corr)
		}
	}
}

func TestBoolExtremes(t *testing.T) {
	r := NewRNG(1, 1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := NewRNG(2, 2)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	f := float64(hits) / n
	if math.Abs(f-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", f)
	}
}

func TestBitBalance(t *testing.T) {
	r := NewRNG(3, 3)
	const n = 100000
	ones := 0
	for i := 0; i < n; i++ {
		ones += int(r.Bit())
	}
	f := float64(ones) / n
	if math.Abs(f-0.5) > 0.01 {
		t.Fatalf("Bit frequency %v", f)
	}
}

func TestWilsonBasics(t *testing.T) {
	lo, hi := Wilson(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = %v,%v", lo, hi)
	}
	lo, hi = Wilson(0, 100, 1.96)
	if lo != 0 {
		t.Fatalf("Wilson(0,100) lo = %v", lo)
	}
	if hi <= 0 || hi > 0.1 {
		t.Fatalf("Wilson(0,100) hi = %v", hi)
	}
	lo, hi = Wilson(100, 100, 1.96)
	if hi < 1-1e-9 {
		t.Fatalf("Wilson(100,100) hi = %v", hi)
	}
	if lo >= 1 || lo < 0.9 {
		t.Fatalf("Wilson(100,100) lo = %v", lo)
	}
}

// TestWilsonProperties checks, for arbitrary (k, n), that the interval is
// ordered, inside [0,1], and contains the point estimate.
func TestWilsonProperties(t *testing.T) {
	f := func(k16, n16 uint16) bool {
		n := int(n16%1000) + 1
		k := int(k16) % (n + 1)
		lo, hi := Wilson(k, n, 1.96)
		p := float64(k) / float64(n)
		return lo >= 0 && hi <= 1 && lo <= hi && lo <= p+1e-12 && hi >= p-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonNarrowsWithN(t *testing.T) {
	lo1, hi1 := Wilson(10, 100, 1.96)
	lo2, hi2 := Wilson(100, 1000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatalf("interval did not narrow: [%v,%v] vs [%v,%v]", lo1, hi1, lo2, hi2)
	}
}

func TestMeanMaxRatio(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Max([]float64{1, 5, 3}); got != 5 {
		t.Fatalf("Max = %v", got)
	}
	if got := Ratio(6, 3); got != 2 {
		t.Fatalf("Ratio = %v", got)
	}
	if got := Ratio(6, 0); got != 0 {
		t.Fatalf("Ratio by zero = %v", got)
	}
}

// TestRNGMatchesRandV2 pins the hand-inlined draw methods to math/rand/v2's
// *Rand semantics: for the same PCG state, every method must return the same
// value AND consume the same number of raw words as its rand.Rand
// counterpart. This is the contract that lets stored tallies and warm-cache
// entries survive the concrete-source rewrite.
func TestRNGMatchesRandV2(t *testing.T) {
	seed1 := splitmix64(42)
	seed2 := splitmix64(7 ^ 0x9e3779b97f4a7c15)
	got := NewRNG(42, 7)
	want := rand.New(rand.NewPCG(seed1, seed2))

	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0:
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("draw %d: Uint64 %d != %d", i, g, w)
			}
		case 1:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("draw %d: Float64 %v != %v", i, g, w)
			}
		case 2:
			// Mix of power-of-two and Lemire-path bounds.
			n := []int{2, 3, 4, 7, 64, 1000003}[i%6]
			if g, w := got.IntN(n), want.IntN(n); g != w {
				t.Fatalf("draw %d: IntN(%d) %d != %d", i, n, g, w)
			}
		case 3:
			if g, w := got.Bit(), uint8(want.Uint64()&1); g != w {
				t.Fatalf("draw %d: Bit %d != %d", i, g, w)
			}
		case 4:
			p := []float64{0.1, 0.5, 0.9}[i%3]
			if g, w := got.Bool(p), want.Float64() < p; g != w {
				t.Fatalf("draw %d: Bool(%v) %v != %v", i, p, g, w)
			}
		}
	}
	// One final raw draw catches any cumulative word-consumption skew the
	// value comparisons above happened to mask.
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("streams desynchronized: final Uint64 %d != %d", g, w)
	}
}
