// Package batch implements a Stim-style bit-packed Pauli-frame simulator
// that runs Lanes (64) independent shots of a memory experiment at once.
// Where the scalar simulator in internal/sim stores one bool per qubit per
// frame, this simulator stores one uint64 word per qubit: bit i of x[q] is
// the X frame of qubit q in shot lane i. Frame propagation through H, CNOT
// and SWAP then becomes a handful of AND/XOR word operations serving all 64
// shots, and syndrome extraction produces one 64-bit outcome word per
// stabilizer.
//
// Noise is injected with rare-event skip sampling: error probabilities in
// the ERASER model are ~1e-3 to 1e-4, so instead of drawing one Float64 per
// lane per noise site, each distinct probability — a *rate class* — keeps a
// stats.RNG.Geometric stream that jumps directly to the next erring lane. A
// noise site over a full word costs O(1 + 64p) random draws instead of 64.
// With the uniform scalar model every noise kind has one class; a
// heterogeneous device profile (UseRates) gets one stream per distinct
// per-site rate, so site-calibrated noise costs the same number of sampler
// calls as uniform noise.
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
//
// The package has two engines over these primitives. Wide, the 256-lane
// block engine, runs every batch unit at runtime: 4 units side by side, each
// on its own RNG stream. Simulator, the 64-lane engine described above, is
// the reference Wide is tested against bit for bit, one unit at a time.
package batch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// WordLanes is the number of independent shots packed into each simulator
// word. The lane width is defined once, in package circuit, so the builder's
// masks, the decoder's collectors and this engine can never disagree.
const WordLanes = circuit.WordLanes

// Lanes is WordLanes under its historical name.
const Lanes = WordLanes

// BlockWords is the number of 64-lane words the wide engine advances per
// plane operation; BlockLanes is the resulting shots-per-block.
const BlockWords = circuit.MaskWords

// BlockLanes is the number of shots one wide block carries (4 work units).
const BlockLanes = BlockWords * WordLanes

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

// Simulator holds the bit-packed frame state for one batch of Lanes shots.
// All exported slice results alias internal buffers valid until the next
// call that produces them; a Simulator is reused across batches via Reset.
type Simulator struct {
	Layout *surfacecode.Layout
	Noise  noise.Params
	// Basis is the memory basis, as in the scalar simulator.
	Basis surfacecode.Kind
	// TrackML maintains the multi-level readout bit-planes (MLParityLeak /
	// MLParityVal and the data-wire planes consumed by OpCondReturn). Set it
	// before Reset; only ERASER+M reads the classifications, so the default
	// skips the extra sampling work.
	TrackML bool

	rng    *stats.RNG
	x, z   []uint64 // [NumQubits] Pauli frame planes
	leaked []uint64 // [NumQubits] leakage plane

	round    int
	syndrome []uint64 // [NumParity] outcome words
	prev     []uint64
	events   []uint64

	// Multi-level readout planes, per stabilizer: is-leak and value bits of
	// the classification of the measured wire (mlPar*) and, in LRC rounds, of
	// the measured data qubit (mlData*). Maintained only under TrackML.
	mlParLeak  []uint64
	mlParVal   []uint64
	mlDataLeak []uint64
	mlDataVal  []uint64

	finalData []uint64 // [NumData] transversal measurement outcome words
	finalDet  []uint64 // [NumParity] final detector words

	// Skip-sampling state, organized by *rate class*: sites sharing a rate
	// value share one geometric stream, so a noise site still costs
	// O(1 + 64p) draws regardless of how many sites exist. Profile-free and
	// uniform-profile simulators collapse to one class per kind — the exact
	// sampler layout (and random sequence) of the scalar-rate engine — while
	// heterogeneous profiles get one stream per distinct rate.
	rates *device.Rates // nil = uniform Noise scalars
	classTables
	depolS []sampler // class samplers, reset per batch
	leakS  []sampler
	seepS  []sampler
	mlS    []sampler
}

// classTables maps noise sites to rate classes. The tables are pure functions
// of (layout, noise, rates), carry no RNG state, and are shared verbatim
// between the single-word and the wide engine — only the sampler streams are
// per-engine (and, in the wide engine, per 64-lane sub-word). depol spans
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

// New returns a batch simulator for the layout. Call Reset with a dedicated
// RNG before running each batch.
func New(l *surfacecode.Layout, n noise.Params, basis surfacecode.Kind) *Simulator {
	s := &Simulator{
		Layout: l,
		Noise:  n,
		Basis:  basis,

		x:      make([]uint64, l.NumQubits),
		z:      make([]uint64, l.NumQubits),
		leaked: make([]uint64, l.NumQubits),

		syndrome:   make([]uint64, l.NumParity),
		prev:       make([]uint64, l.NumParity),
		events:     make([]uint64, l.NumParity),
		mlParLeak:  make([]uint64, l.NumParity),
		mlParVal:   make([]uint64, l.NumParity),
		mlDataLeak: make([]uint64, l.NumParity),
		mlDataVal:  make([]uint64, l.NumParity),
		finalData:  make([]uint64, l.NumData),
		finalDet:   make([]uint64, l.NumParity),
	}
	s.buildClasses()
	return s
}

// UseRates switches the simulator to per-site rates from a resolved device
// profile and rebuilds the rate-class tables; Noise is rebound to the
// profile's base (which still supplies the transport model and leakage
// enable). A uniform profile collapses to one class per noise kind — the
// scalar engine's exact sampler layout — so its batches are bit-identical to
// the profile-free simulator's. Call before Reset; survives it.
func (s *Simulator) UseRates(r *device.Rates) {
	s.rates = r
	if r != nil {
		s.Noise = r.Base
	}
	s.buildClasses()
}

// buildClasses rebuilds the rate-class tables and sampler arrays.
func (s *Simulator) buildClasses() {
	s.classTables = buildClassTables(s.Layout, s.Noise, s.rates)
	s.depolS = make([]sampler, len(s.depolV))
	s.leakS = make([]sampler, len(s.leakV))
	s.seepS = make([]sampler, len(s.seepV))
	s.mlS = make([]sampler, len(s.mlV))
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

// depolCoupler returns the depolarizing sampler of the (a, b) coupler,
// falling back to the base class for non-coupler pairs (which the circuit
// builder never emits).
func (s *Simulator) depolCoupler(a, b int) *sampler {
	if s.rates != nil {
		if i := s.rates.CouplerIndex(a, b); i >= 0 {
			return &s.depolS[s.depolC[i]]
		}
	}
	return &s.depolS[s.depolBase]
}

// transportAt returns the leakage-transport probability of the (a, b)
// coupler.
func (s *Simulator) transportAt(a, b int) float64 {
	if s.rates == nil {
		return s.Noise.PTransport
	}
	return s.rates.TransportP(a, b)
}

// Reset clears all frame state and rebinds the random source for a fresh
// batch of shots. rng must be dedicated to this batch.
func (s *Simulator) Reset(rng *stats.RNG) {
	s.rng = rng
	s.round = 0
	for i := range s.x {
		s.x[i], s.z[i], s.leaked[i] = 0, 0, 0
	}
	for i := range s.syndrome {
		s.syndrome[i], s.prev[i], s.events[i] = 0, 0, 0
		s.mlParLeak[i], s.mlParVal[i] = 0, 0
		s.mlDataLeak[i], s.mlDataVal[i] = 0, 0
	}
	for i := range s.depolS {
		s.depolS[i].reset(s.depolV[i], rng)
	}
	for i := range s.leakS {
		s.leakS[i].reset(s.leakV[i], rng)
	}
	for i := range s.seepS {
		s.seepS[i].reset(s.seepV[i], rng)
	}
	for i := range s.mlS {
		pml := 0.0
		if s.TrackML {
			pml = s.mlV[i]
		}
		s.mlS[i].reset(pml, rng)
	}
}

// Round returns the number of completed rounds.
func (s *Simulator) Round() int { return s.round }

// LeakedWord returns the leakage plane of qubit q: bit i set means lane i's
// qubit q is leaked. The harness reads it for speculation-accuracy
// accounting before each round.
func (s *Simulator) LeakedWord(q int) uint64 { return s.leaked[q] }

// LeakedDataWords returns the leakage planes of all data qubits, aliasing
// internal state. The lane-planner feeds them to the Optimal oracle policy.
func (s *Simulator) LeakedDataWords() []uint64 { return s.leaked[:s.Layout.NumData] }

// MLParityLeak returns the is-leak plane of the latest round's per-stabilizer
// multi-level classifications (aliased; zero unless TrackML is set).
func (s *Simulator) MLParityLeak() []uint64 { return s.mlParLeak }

// MLParityVal returns the value plane of the latest round's per-stabilizer
// multi-level classifications (aliased; meaningful only where the is-leak
// plane is clear).
func (s *Simulator) MLParityVal() []uint64 { return s.mlParVal }

// MLDataLeak returns the is-leak plane of the latest round's LRC data-wire
// classifications (aliased; bits are meaningful only on lanes whose plan
// included an LRC on the stabilizer).
func (s *Simulator) MLDataLeak() []uint64 { return s.mlDataLeak }

// LeakedCounts returns the number of (lane, qubit) pairs currently leaked
// among the active lanes, split by qubit type. Summing over lanes is exactly
// the quantity the experiment accumulators need for the LPR series.
func (s *Simulator) LeakedCounts(active uint64) (data, parity int) {
	for q := 0; q < s.Layout.NumData; q++ {
		data += bits.OnesCount64(s.leaked[q] & active)
	}
	for q := s.Layout.NumData; q < s.Layout.NumQubits; q++ {
		parity += bits.OnesCount64(s.leaked[q] & active)
	}
	return data, parity
}

// RunRound applies round-start noise and executes one syndrome extraction
// round for all lanes at once; every op applies to every lane (static
// schedules). The returned slice holds one detection-event word per
// stabilizer and aliases an internal buffer valid until the next call.
func (s *Simulator) RunRound(ops []circuit.Op) []uint64 {
	s.beginRound()
	for _, op := range ops {
		s.applyMasked(op, AllLanes)
	}
	return s.finishRound()
}

// RunRoundMasked is RunRound for a lane-masked op sequence produced by
// circuit.Builder.MaskedRound: each op's frame action and noise apply only
// on the lanes of its mask, so lanes with different LRC plans advance
// through one shared word-parallel round.
func (s *Simulator) RunRoundMasked(ops []circuit.MaskedOp) []uint64 {
	s.beginRound()
	for _, op := range ops {
		// The single-word engine owns lanes 0..63: word 0 of the mask.
		s.applyMasked(op.Op, op.Mask[0])
	}
	return s.finishRound()
}

func (s *Simulator) beginRound() {
	s.round++
	if s.TrackML {
		for i := range s.mlDataLeak {
			s.mlDataLeak[i], s.mlDataVal[i] = 0, 0
		}
	}
	s.roundStartNoise()
}

func (s *Simulator) finishRound() []uint64 {
	for i := range s.Layout.Stabilizers {
		st := &s.Layout.Stabilizers[i]
		if s.round == 1 {
			if st.Kind == s.Basis {
				s.events[i] = s.syndrome[i]
			} else {
				s.events[i] = 0
			}
		} else {
			s.events[i] = s.syndrome[i] ^ s.prev[i]
		}
	}
	copy(s.prev, s.syndrome)
	return s.events
}

func (s *Simulator) applyMasked(op circuit.Op, mask uint64) {
	if mask == 0 {
		return
	}
	switch op.Kind {
	case circuit.OpH:
		s.hadamard(op.Q0, mask)
	case circuit.OpCNOT:
		s.cnot(op.Q0, op.Q1, mask)
	case circuit.OpMeasure:
		w := s.measureZWord(op.Q0, mask)
		if op.Stab >= 0 {
			s.syndrome[op.Stab] = (s.syndrome[op.Stab] &^ mask) | w
			if s.TrackML {
				leak, val := s.classifyML(op.Q0, w, mask)
				s.mlParLeak[op.Stab] = (s.mlParLeak[op.Stab] &^ mask) | leak
				s.mlParVal[op.Stab] = (s.mlParVal[op.Stab] &^ mask) | val
				if op.DataWire {
					s.mlDataLeak[op.Stab] = (s.mlDataLeak[op.Stab] &^ mask) | leak
					s.mlDataVal[op.Stab] = (s.mlDataVal[op.Stab] &^ mask) | val
				}
			}
		}
	case circuit.OpReset:
		s.reset(op.Q0, mask)
	case circuit.OpSwapReturn:
		s.cnot(op.Q0, op.Q1, mask)
		s.cnot(op.Q1, op.Q0, mask)
	case circuit.OpCondReturn:
		// ERASER+M QSG rule (Section 4.6.2), per lane: where the LRC data
		// measurement classified |L>, the parity qubit's held state is
		// meaningless — reset it and skip the return SWAP, leaving the data
		// qubit's freshly reset |0> as a random frame deviation; elsewhere
		// return as usual.
		if !s.TrackML {
			panic("batch: OpCondReturn requires TrackML")
		}
		var squash uint64
		if op.Stab >= 0 {
			squash = s.mlDataLeak[op.Stab] & mask
		}
		if ret := mask &^ squash; ret != 0 {
			s.cnot(op.Q0, op.Q1, ret)
			s.cnot(op.Q1, op.Q0, ret)
		}
		if squash != 0 {
			s.reset(op.Q0, squash)
			s.x[op.Q1] = (s.x[op.Q1] &^ squash) | (s.rng.Uint64() & squash)
			s.z[op.Q1] = (s.z[op.Q1] &^ squash) | (s.rng.Uint64() & squash)
		}
	case circuit.OpLeakISWAP:
		s.leakISWAP(op.Q0, op.Q1, mask)
	default:
		panic(fmt.Sprintf("batch: unknown op kind %d", op.Kind))
	}
}

// FinalMeasure performs the transversal data measurement in the memory
// basis and returns one outcome-flip word per data qubit (aliasing an
// internal buffer).
func (s *Simulator) FinalMeasure(ops []circuit.Op) []uint64 {
	for _, op := range ops {
		if op.Kind != circuit.OpMeasure {
			continue
		}
		if s.Basis == surfacecode.KindX {
			s.finalData[op.Q0] = s.measureXWord(op.Q0, AllLanes)
		} else {
			s.finalData[op.Q0] = s.measureZWord(op.Q0, AllLanes)
		}
	}
	return s.finalData
}

// FinalDetectors folds the transversal measurement into the last detector
// layer for the stabilizers matching the memory basis, per lane. The result
// aliases an internal buffer; entries for the other stabilizer kind are 0.
func (s *Simulator) FinalDetectors(finalData []uint64) []uint64 {
	out := s.finalDet
	for i := range s.Layout.Stabilizers {
		st := &s.Layout.Stabilizers[i]
		if st.Kind != s.Basis {
			out[i] = 0
			continue
		}
		var par uint64
		for _, q := range st.Data {
			par ^= finalData[q]
		}
		out[i] = par ^ s.prev[i]
	}
	return out
}

// FinalRound performs the transversal data measurement and returns both the
// final detector-layer words and the packed logical observable flips in one
// call — the shape the decode pipeline hands off to the batch decoders (det
// aliases an internal buffer; it must be consumed, e.g. fanned into a
// collector, before the simulator is reset for the next unit).
func (s *Simulator) FinalRound(ops []circuit.Op) (det []uint64, obs uint64) {
	final := s.FinalMeasure(ops)
	return s.FinalDetectors(final), s.ObservableFlip(final)
}

// ObservableFlip returns the measured logical flip of every lane as one
// word: the parity of the final data outcomes over the logical support.
func (s *Simulator) ObservableFlip(finalData []uint64) uint64 {
	var par uint64
	for _, q := range s.Layout.LogicalSupport(s.Basis) {
		par ^= finalData[q]
	}
	return par
}

// InjectX flips the X frame of qubit q on the given lanes (tests).
func (s *Simulator) InjectX(q int, lanes uint64) { s.x[q] ^= lanes &^ s.leaked[q] }

// InjectZ flips the Z frame of qubit q on the given lanes (tests).
func (s *Simulator) InjectZ(q int, lanes uint64) { s.z[q] ^= lanes &^ s.leaked[q] }

// InjectLeak forces qubit q into the leaked state on the given lanes.
func (s *Simulator) InjectLeak(q int, lanes uint64) { s.leakMask(q, lanes) }

// ------------------------------------------------------------ primitives --

// leakMask leaks the given lanes of q, clearing their frames so the
// invariant "leaked lanes carry no frame bits" holds everywhere.
func (s *Simulator) leakMask(q int, m uint64) {
	if m == 0 {
		return
	}
	s.leaked[q] |= m
	s.x[q] &^= m
	s.z[q] &^= m
}

// unleakMask returns the given lanes of q to the computational basis in a
// uniformly random state, mirroring the scalar simulator's unleak.
func (s *Simulator) unleakMask(q int, m uint64) {
	if m == 0 {
		return
	}
	s.leaked[q] &^= m
	s.x[q] = (s.x[q] &^ m) | (s.rng.Uint64() & m)
	s.z[q] = (s.z[q] &^ m) | (s.rng.Uint64() & m)
}

// depolarize1Mask applies an independent uniform X/Y/Z to each set lane.
// Callers pre-mask out leaked lanes; set lanes are rare, so the per-lane
// loop costs nothing in the common all-zero case.
func (s *Simulator) depolarize1Mask(q int, m uint64) {
	for ; m != 0; m &= m - 1 {
		bit := m & -m
		switch s.rng.IntN(3) {
		case 0:
			s.x[q] ^= bit
		case 1:
			s.z[q] ^= bit
		default:
			s.x[q] ^= bit
			s.z[q] ^= bit
		}
	}
}

// applyPauliLane applies I/X/Y/Z (p = 0..3) to one lane of q, skipping
// leaked lanes like the scalar applyPauli.
func (s *Simulator) applyPauliLane(q int, bit uint64, p int) {
	if s.leaked[q]&bit != 0 {
		return
	}
	switch p {
	case 1:
		s.x[q] ^= bit
	case 2:
		s.x[q] ^= bit
		s.z[q] ^= bit
	case 3:
		s.z[q] ^= bit
	}
}

// depolarize2Mask applies an independent uniform non-identity two-qubit
// Pauli to each set lane of the pair (a, b).
func (s *Simulator) depolarize2Mask(a, b int, m uint64) {
	for ; m != 0; m &= m - 1 {
		bit := m & -m
		for {
			pa, pb := s.rng.IntN(4), s.rng.IntN(4)
			if pa == 0 && pb == 0 {
				continue
			}
			s.applyPauliLane(a, bit, pa)
			s.applyPauliLane(b, bit, pb)
			break
		}
	}
}

// classifyML returns the multi-level classification planes for a measurement
// of qubit q whose two-level outcome word (already restricted to mask) is w:
// leaked lanes classify |L>, others carry the outcome bit, and each lane
// errs to one of the two wrong classes with probability PMultiLevelError,
// matching the scalar discriminator.
func (s *Simulator) classifyML(q int, w, mask uint64) (leak, val uint64) {
	leak = s.leaked[q] & mask
	val = w &^ leak
	for errm := s.mlS[s.mlQ[q]].next() & mask; errm != 0; errm &= errm - 1 {
		bit := errm & -errm
		switch {
		case leak&bit != 0: // |L> misread as |0> or |1>
			leak &^= bit
			if s.rng.IntN(2) == 1 {
				val |= bit
			}
		case val&bit != 0: // |1> misread as |0> or |L>
			val &^= bit
			if s.rng.IntN(2) == 1 {
				leak |= bit
			}
		default: // |0> misread as |1> or |L>
			if s.rng.IntN(2) == 0 {
				val |= bit
			} else {
				leak |= bit
			}
		}
	}
	return leak, val
}

// ----------------------------------------------------------------- gates --

func (s *Simulator) hadamard(q int, mask uint64) {
	swap := mask &^ s.leaked[q]
	x, z := s.x[q], s.z[q]
	s.x[q] = (z & swap) | (x &^ swap)
	s.z[q] = (x & swap) | (z &^ swap)
	s.depolarize1Mask(q, s.depolS[s.depolQ[q]].next()&swap)
}

func (s *Simulator) cnot(c, t int, mask uint64) {
	n := &s.Noise
	lc, lt := s.leaked[c]&mask, s.leaked[t]&mask
	both := mask &^ (lc | lt)
	s.x[t] ^= s.x[c] & both
	s.z[c] ^= s.z[t] & both
	s.depolarize2Mask(c, t, s.depolCoupler(c, t).next()&both)
	if n.LeakageEnabled {
		s.leakMask(c, s.leakS[s.leakQ[c]].next()&both)
		s.leakMask(t, s.leakS[s.leakQ[t]].next()&both)
	}
	// Lanes with exactly one leaked operand: random Pauli on the unleaked
	// one, leakage transport with probability PTransport (Section 5.2.2).
	for m := lc ^ lt; m != 0; m &= m - 1 {
		bit := m & -m
		u, l := t, c
		if lt&bit != 0 {
			u, l = c, t
		}
		s.applyPauliLane(u, bit, s.rng.IntN(4))
		if s.rng.Bool(s.transportAt(c, t)) {
			s.leakMask(u, bit)
			if n.Transport == noise.TransportExchange {
				s.unleakMask(l, bit)
			}
		}
	}
}

// leakISWAP mirrors the scalar simulator's DQLR LeakageISWAP semantics,
// partitioned by lane into the three scalar cases.
func (s *Simulator) leakISWAP(d, p int, mask uint64) {
	n := &s.Noise
	ld, lp := s.leaked[d]&mask, s.leaked[p]&mask
	caseD := ld               // leaked data: return to computational basis
	caseP := lp &^ ld         // leaked parity only: leaked-CNOT-operand behavior
	rest := mask &^ (ld | lp) // neither leaked

	if caseD != 0 {
		s.unleakMask(d, caseD)
		s.x[p] ^= caseD &^ lp // p receives the |1> excitation where unleaked
	}
	for m := caseP; m != 0; m &= m - 1 {
		bit := m & -m
		s.applyPauliLane(d, bit, s.rng.IntN(4))
		if s.rng.Bool(s.transportAt(d, p)) {
			s.leakMask(d, bit)
			if n.Transport == noise.TransportExchange {
				s.unleakMask(p, bit)
			}
		}
	}
	// Leaked-parity lanes take no CX-grade tail noise (scalar early return).
	tail := caseD | rest
	if n.LeakageEnabled {
		// Reset failure on p (x[p] set) excites d with probability 1/2.
		if excite := rest & s.x[p]; excite != 0 {
			half := s.rng.Uint64() & excite
			if half != 0 {
				s.leakMask(d, half)
				s.x[p] &^= half
				tail &^= half
			}
		}
	}
	s.depolarize2Mask(d, p, s.depolCoupler(d, p).next()&tail)
	if n.LeakageEnabled {
		s.leakMask(d, s.leakS[s.leakQ[d]].next()&tail)
		s.leakMask(p, s.leakS[s.leakQ[p]].next()&tail)
	}
}

// measureZWord returns the two-level Z-basis outcome word for the masked
// lanes of qubit q (clear elsewhere): the X frame on unleaked lanes, random
// bits on leaked lanes, with a measurement flip at probability P on unleaked
// lanes.
func (s *Simulator) measureZWord(q int, mask uint64) uint64 {
	lk := s.leaked[q] & mask
	w := s.x[q] & mask &^ lk
	if lk != 0 {
		w |= s.rng.Uint64() & lk
	}
	return w ^ (s.depolS[s.depolQ[q]].next() & mask &^ lk)
}

// measureXWord is measureZWord in the X basis: the Z frame decides the
// deviation from the reference |+>/|-> outcome.
func (s *Simulator) measureXWord(q int, mask uint64) uint64 {
	lk := s.leaked[q] & mask
	w := s.z[q] & mask &^ lk
	if lk != 0 {
		w |= s.rng.Uint64() & lk
	}
	return w ^ (s.depolS[s.depolQ[q]].next() & mask &^ lk)
}

func (s *Simulator) reset(q int, mask uint64) {
	s.leaked[q] &^= mask
	s.z[q] &^= mask
	// Initialization error: |1> instead of |0> on masked lanes.
	s.x[q] = (s.x[q] &^ mask) | (s.depolS[s.depolQ[q]].next() & mask)
}

func (s *Simulator) roundStartNoise() {
	n := &s.Noise
	for q := 0; q < s.Layout.NumData; q++ {
		if !n.LeakageEnabled {
			s.depolarize1Mask(q, s.depolS[s.depolQ[q]].next())
			continue
		}
		lk := s.leaked[q]
		if lk != 0 {
			s.unleakMask(q, s.seepS[s.seepQ[q]].next()&lk)
		}
		// Lanes leaked at round start (even if just seeped) take no further
		// round-start noise, as in the scalar simulator.
		lm := s.leakS[s.leakQ[q]].next() &^ lk
		s.leakMask(q, lm)
		s.depolarize1Mask(q, s.depolS[s.depolQ[q]].next()&^(lk|lm))
	}
}
