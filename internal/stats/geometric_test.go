package stats

import (
	"math"
	"testing"
)

// TestGeometricLnMatchesGeometric: the cached-log entry point returns
// Geometric's gaps value for value, and both keep the original
// log(u)/log1p(-p) formula every stored tally was drawn with.
func TestGeometricLnMatchesGeometric(t *testing.T) {
	ref := func(r *RNG, p float64) int {
		u := 1 - r.Float64()
		g := math.Log(u) / math.Log1p(-p)
		if g >= GeometricNever {
			return GeometricNever
		}
		return int(g)
	}
	for _, p := range []float64{1e-300, 1e-6, 1e-4, 1e-3, 0.05, 0.5, 0.999} {
		r0, r1, r2 := NewRNG(5, 9), NewRNG(5, 9), NewRNG(5, 9)
		lnq := math.Log1p(-p)
		for i := 0; i < 100000; i++ {
			want := ref(r0, p)
			if g := r1.Geometric(p); g != want {
				t.Fatalf("p=%v draw %d: Geometric = %d, want %d", p, i, g, want)
			}
			if g := r2.GeometricLn(lnq); g != want {
				t.Fatalf("p=%v draw %d: GeometricLn = %d, want %d", p, i, g, want)
			}
		}
	}
}

// TestGeometricEdges: p <= 0 means "never", p >= 1 means "immediately".
func TestGeometricEdges(t *testing.T) {
	r := NewRNG(1, 1)
	if g := r.Geometric(0); g != GeometricNever {
		t.Fatalf("Geometric(0) = %d, want GeometricNever", g)
	}
	if g := r.Geometric(-0.5); g != GeometricNever {
		t.Fatalf("Geometric(-0.5) = %d, want GeometricNever", g)
	}
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	if g := r.Geometric(1.5); g != 0 {
		t.Fatalf("Geometric(1.5) = %d, want 0", g)
	}
	// Tiny p must not overflow or go negative.
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1e-300); g < 0 || g > GeometricNever {
			t.Fatalf("Geometric(1e-300) = %d out of range", g)
		}
	}
	// Non-finite probabilities fall on the same edges: -Inf never succeeds,
	// +Inf succeeds immediately (NaN compares false on both guards and is a
	// caller bug, so it is deliberately unspecified).
	for i := 0; i < 10; i++ {
		if g := r.Geometric(math.Inf(-1)); g != GeometricNever {
			t.Fatalf("Geometric(-Inf) = %d, want GeometricNever", g)
		}
		if g := r.Geometric(math.Inf(1)); g != 0 {
			t.Fatalf("Geometric(+Inf) = %d, want 0", g)
		}
	}
	// GeometricNever leaves headroom so skip-offset arithmetic cannot
	// overflow int.
	if GeometricNever+GeometricNever < GeometricNever {
		t.Fatal("GeometricNever + GeometricNever overflowed")
	}
}

// TestGeometricMoments: the sample mean and variance match the geometric
// distribution's (1-p)/p and (1-p)/p^2 within a few standard errors.
func TestGeometricMoments(t *testing.T) {
	r := NewRNG(2, 2)
	for _, p := range []float64{0.5, 0.1, 0.01, 1e-3} {
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			g := float64(r.Geometric(p))
			sum += g
			sumSq += g * g
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := (1 - p) / p
		wantVar := (1 - p) / (p * p)
		// Standard error of the mean is sqrt(var/n); allow 5 sigma.
		tol := 5 * math.Sqrt(wantVar/n)
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("p=%v: mean %v, want %v +- %v", p, mean, wantMean, tol)
		}
		if variance < 0.9*wantVar || variance > 1.1*wantVar {
			t.Errorf("p=%v: variance %v, want ~%v", p, variance, wantVar)
		}
	}
}

// TestGeometricMatchesBernoulli: chi-square agreement between the skip
// sampler's gap distribution and gaps measured from a naive Bernoulli trial
// stream, binned at small gap values (where nearly all the mass lives).
func TestGeometricMatchesBernoulli(t *testing.T) {
	const p = 0.05
	const n = 100000
	const bins = 20 // gaps 0..18, last bin is >= 19

	sample := func(next func() int) []float64 {
		counts := make([]float64, bins)
		for i := 0; i < n; i++ {
			g := next()
			if g >= bins-1 {
				g = bins - 1
			}
			counts[g]++
		}
		return counts
	}

	rg := NewRNG(3, 3)
	geo := sample(func() int { return rg.Geometric(p) })

	rb := NewRNG(4, 4)
	naive := sample(func() int {
		g := 0
		for !rb.Bool(p) {
			g++
		}
		return g
	})

	// Pearson chi-square between the two empirical histograms (two-sample,
	// equal sizes). 5 sigma over df=19 keeps the test deterministic-grade.
	var chi2 float64
	for i := 0; i < bins; i++ {
		if s := geo[i] + naive[i]; s > 0 {
			d := geo[i] - naive[i]
			chi2 += d * d / s
		}
	}
	df := float64(bins - 1)
	limit := df + 5*math.Sqrt(2*df)
	if chi2 > limit {
		t.Fatalf("chi-square %v exceeds %v: skip sampler disagrees with Bernoulli gaps", chi2, limit)
	}

	// The head probability must also match analytically: P(G=0) = p.
	if got := geo[0] / n; got < 0.8*p || got > 1.2*p {
		t.Fatalf("P(G=0) = %v, want ~%v", got, p)
	}
}
