// Package stats provides the random-number and statistics utilities shared by
// the simulator and the experiment harness: a splittable deterministic RNG so
// that every shot of every experiment is independently reproducible, Wilson
// confidence intervals for logical-error-rate estimates, and small series
// helpers used when assembling figure data.
package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is the random source used throughout the simulator: a PCG generator
// seeded deterministically so experiments are reproducible while remaining
// statistically independent across shots.
//
// The generator is held by value and the derived-draw methods (Float64, IntN,
// Bool, ...) replicate math/rand/v2's *Rand semantics exactly, bit for bit —
// same raw-word consumption, same mapping to floats and bounded ints. The
// replication is deliberate: rand.Rand reaches its source through an
// interface, and on the simulator's hot path (millions of per-lane transport
// draws per second) the non-devirtualized call plus the wrapper layer were a
// measurable fraction of total run time. Calling the concrete PCG directly
// removes that overhead without changing a single emitted sequence, so every
// stored tally and warm-cache entry produced by the rand.Rand-backed
// implementation remains valid.
type RNG struct {
	src rand.PCG
}

// NewRNG returns a generator seeded from the pair (seed, stream). Distinct
// (seed, stream) pairs yield independent streams; identical pairs yield
// identical sequences.
func NewRNG(seed, stream uint64) *RNG {
	// Mix the words through SplitMix64 so that small consecutive seeds do
	// not produce correlated PCG states.
	r := &RNG{}
	r.src.Seed(splitmix64(seed), splitmix64(stream^0x9e3779b97f4a7c15))
	return r
}

// Split derives an independent child generator for the given shot index.
// Splitting is deterministic: the same parent seed and index always produce
// the same child stream.
func (r *RNG) Split(index uint64) *RNG {
	c := &RNG{}
	c.src.Seed(r.src.Uint64()^splitmix64(index), splitmix64(index+0x517cc1b727220a95))
	return c
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GeometricNever is returned by Geometric when p <= 0: the next success is
// beyond any horizon a simulation can reach. It is small enough that adding
// small offsets to it cannot overflow int on any platform.
const GeometricNever = math.MaxInt >> 1

// Geometric returns the number of failures before the next success in an
// i.i.d. Bernoulli(p) trial stream. It is the skip-sampling primitive for
// rare events: instead of drawing one Float64 per potential error site, a
// simulator draws one Geometric gap and jumps directly to the next site that
// errs. For p >= 1 it returns 0 (every trial succeeds); for p <= 0 it
// returns GeometricNever.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return GeometricNever
	}
	return r.GeometricLn(math.Log1p(-p))
}

// GeometricLn is Geometric for 0 < p < 1 with lnq = math.Log1p(-p)
// precomputed by the caller, for skip samplers that draw many gaps at one
// rate. It consumes the same draw and returns the same gap as Geometric(p).
func (r *RNG) GeometricLn(lnq float64) int {
	u := 1 - r.Float64() // uniform in (0, 1]
	g := math.Log(u) / lnq
	if g >= GeometricNever {
		return GeometricNever
	}
	return int(g)
}

// Bool returns true with probability p. For 0 < p < 1 it consumes exactly one
// raw word; the degenerate cases consume nothing.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bit returns 0 or 1 with equal probability.
func (r *RNG) Bit() uint8 { return uint8(r.src.Uint64() & 1) }

// IntN returns a uniform integer in [0, n).
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n is rand/v2's 64-bit bounded-draw algorithm verbatim: a mask for
// powers of two, otherwise Lemire's widening-multiply rejection method. Word
// consumption matches (*rand.Rand).uint64n draw for draw.
func (r *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 { // n is a power of two
		return r.src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.src.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float in [0, 1), mapping the raw word exactly as
// (*rand.Rand).Float64 does: the top 53 bits scaled by 2⁻⁵³.
func (r *RNG) Float64() float64 {
	return float64(r.src.Uint64()<<11>>11) / (1 << 53)
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Wilson returns the Wilson score interval (lo, hi) for k successes out of n
// trials at the given z (use 1.96 for 95% confidence). It is well behaved for
// k = 0 and k = n, unlike the normal approximation.
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z * z
	den := 1 + z2/nf
	center := (p + z2/(2*nf)) / den
	half := z / den * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Ratio returns a/b, or 0 when b == 0. It is used for "X× improvement"
// summaries where a zero denominator means the metric was unmeasurable.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
