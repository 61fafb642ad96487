// Package batch implements a Stim-style bit-packed Pauli-frame simulator
// for the memory experiment. Where the scalar simulator in internal/sim
// stores one bool per qubit per frame, this engine stores one uint64 word
// per qubit for every 64 shots: bit i of a qubit's X word is that qubit's X
// frame in shot lane i. Frame propagation through H, CNOT and SWAP then
// becomes a handful of AND/XOR word operations serving every lane, and
// syndrome extraction produces one outcome word per stabilizer.
//
// The work unit is one 64-lane word (Lanes shots) with its own RNG stream.
// The engine, Wide, advances a Block of BlockWords (4) units side by side,
// each in a sub-word of its own that draws only from its own stream, so
// what a unit simulates does not depend on the sub-word it occupies or on
// the units beside it.
//
// Noise is injected with rare-event skip sampling: error probabilities in
// the ERASER model are ~1e-3 to 1e-4, so instead of drawing one Float64 per
// lane per noise site, each distinct probability — a *rate class* — keeps a
// stats.RNG.Geometric stream per unit that jumps directly to the next
// erring lane. A noise site over a full word costs O(1 + 64p) random draws
// instead of 64. With the uniform scalar model every noise kind has one
// class; a heterogeneous device profile (UseRates) gets one stream per
// distinct per-site rate, so site-calibrated noise costs the same number of
// sampler calls as uniform noise.
//
// Lanes that hold a leaked qubit fall back to per-lane handling (random
// Paulis on CNOT partners, leakage transport, seepage), which keeps the
// semantics identical to the scalar simulator's Section 5.2.2 model while
// staying cheap because leakage populations are ~1e-3.
//
// Every operation the circuit builder emits is supported, on two entry
// points. RunRound executes an unmasked sequence where each op applies to
// all lanes — the fast path for static schedules, whose plans are identical
// across shots. RunRoundMasked executes a circuit.MaskedOp sequence from
// circuit.Builder.MaskedRound, applying each op (frame action and noise
// alike) only on the lanes of its mask; adaptive policies with per-shot
// plans run word-parallel this way. OpCondReturn — the ERASER+M conditional
// swap-back, which reads the multi-level classification of the LRC data
// measurement — requires TrackML, which maintains the classifications as
// two bit-planes per stabilizer ("is-leak" and "value").
package batch

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// Lanes is the number of shots packed into one simulator word: the work
// unit. The lane width is defined once, in package circuit, so the builder's
// masks, the decoder's collectors and this engine can never disagree.
const Lanes = circuit.WordLanes

// BlockWords is the number of 64-lane words Wide advances per plane
// operation.
const BlockWords = circuit.MaskWords

// BlockLanes is the number of shots one wide block carries (4 work units).
const BlockLanes = BlockWords * Lanes

// Block is one wide plane word: BlockWords consecutive 64-lane words, word w
// holding sub-word w's lanes. It is the same type as circuit.LaneMask, so
// masked ops feed the wide engine without conversion.
type Block = circuit.LaneMask

// AllLanes is the lane mask with every lane active.
const AllLanes = ^uint64(0)

// LaneMask returns the mask selecting the first n lanes (the active lanes of
// a partial final batch). n must be in [0, Lanes].
func LaneMask(n int) uint64 {
	if n >= Lanes {
		return AllLanes
	}
	return (uint64(1) << uint(n)) - 1
}

// BlockMask returns the Block mask selecting the first n of BlockLanes lanes.
func BlockMask(n int) Block { return circuit.LaneMaskFor(n) }

// sampler emits 64-bit Bernoulli(p) masks using geometric skip sampling: it
// tracks the lane-stream distance to the next success and sets only those
// bits, so a mask costs O(1 + 64p) random draws.
type sampler struct {
	skip int
	p    float64
	lnq  float64 // math.Log1p(-p), the gap draws' cached denominator
	rng  *stats.RNG
}

// reset rebinds the sampler to rate p on rng. For p <= 0 the first success
// lies at stats.GeometricNever, so next stays in its countdown; for p >= 1
// it lies at 0, so every word goes to fill. Neither case draws.
func (m *sampler) reset(p float64, rng *stats.RNG) {
	m.p, m.rng = p, rng
	m.lnq = math.Log1p(-p)
	m.skip = rng.Geometric(p)
}

// next returns a word whose bits are independently 1 with probability p.
// The common case at the model's rates — no success among the next Lanes
// trials — is a countdown small enough to inline at every noise site; fill
// handles a word with a success.
func (m *sampler) next() uint64 {
	if m.skip >= Lanes {
		m.skip -= Lanes
		return 0
	}
	return m.fill()
}

// fill is next's outlined path: it sets the bit of every success in the
// current word and draws the gaps that lead past it.
func (m *sampler) fill() uint64 {
	if m.p <= 0 {
		m.skip = stats.GeometricNever
		return 0
	}
	if m.p >= 1 {
		return AllLanes
	}
	var mask uint64
	for m.skip < Lanes {
		mask |= 1 << uint(m.skip)
		m.skip += 1 + m.rng.GeometricLn(m.lnq)
	}
	m.skip -= Lanes
	return mask
}

// classTables maps noise sites to rate classes. The tables are pure functions
// of (layout, noise, rates) and carry no RNG state, so one set serves every
// sub-word of a block; only the sampler streams are per 64-lane sub-word.
// depol spans
// both the per-qubit P sites (H, measurement flips, resets) and the
// per-coupler CNOT-depolarizing sites; the other kinds are per-qubit.
type classTables struct {
	depolQ    []uint16 // [NumQubits] qubit -> depol class
	depolC    []uint16 // [NumCouplers] coupler -> depol class (profiles only)
	leakQ     []uint16 // [NumQubits] qubit -> leak-injection class
	seepQ     []uint16 // [NumQubits] qubit -> seepage class
	mlQ       []uint16 // [NumQubits] qubit -> multi-level-error class
	depolBase uint16   // fallback depol class for non-coupler pairs
	depolV    []float64
	leakV     []float64
	seepV     []float64
	mlV       []float64
}

// buildClassTables groups the noise sites of each kind by rate value. With no
// profile every kind has exactly one class carrying the scalar noise rate.
func buildClassTables(l *surfacecode.Layout, n noise.Params, rates *device.Rates) classTables {
	nq := l.NumQubits
	var t classTables
	if rates == nil {
		t.depolQ, t.depolV = fill16(nq), []float64{n.P}
		t.leakQ, t.leakV = fill16(nq), []float64{n.PLeak}
		t.seepQ, t.seepV = fill16(nq), []float64{n.PSeep}
		t.mlQ, t.mlV = fill16(nq), []float64{n.PMultiLevelError}
		t.depolC, t.depolBase = nil, 0
		return t
	}
	r := rates
	// depol classes span the per-qubit P sites, the per-coupler CNOT
	// sites and the base fallback, in that order, so a uniform profile
	// still yields a single class 0.
	all := make([]float64, 0, nq+len(r.CDepol)+1)
	all = append(all, r.QP...)
	all = append(all, r.CDepol...)
	all = append(all, r.Base.P)
	cls, vals := classify(all)
	t.depolQ, t.depolC = cls[:nq], cls[nq:nq+len(r.CDepol)]
	t.depolBase = cls[nq+len(r.CDepol)]
	t.depolV = vals
	t.leakQ, t.leakV = classify(r.QLeak)
	t.seepQ, t.seepV = classify(r.QSeep)
	t.mlQ, t.mlV = classify(r.QML)
	return t
}

// classify assigns each value a class id in first-appearance order and
// returns the per-site class ids plus the class rate values.
func classify(vals []float64) ([]uint16, []float64) {
	idx := make(map[float64]uint16)
	var classes []float64
	out := make([]uint16, len(vals))
	for i, v := range vals {
		c, ok := idx[v]
		if !ok {
			if len(classes) > 1<<16-1 {
				// uint16 ids overflow at ~6d^2 distinct rates (d >~ 105 with
				// an all-distinct profile); wrapping would silently hand
				// sites the wrong sampler.
				panic("batch: more than 65535 distinct rate classes")
			}
			c = uint16(len(classes))
			idx[v] = c
			classes = append(classes, v)
		}
		out[i] = c
	}
	return out, classes
}

func fill16(n int) []uint16 { return make([]uint16, n) }
