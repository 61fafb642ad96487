package batch

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// Wide is the 256-lane wide-word engine: one plane operation advances a
// Block of BlockWords (4) consecutive 64-lane words, Stim-style. The frame
// algebra of the hot gates — Hadamard swaps, CNOT propagation, measurement
// and reset masking, detector folding — runs block-wise as unrolled scalar
// word ops: Go's compiler does not auto-vectorize, so a block amortizes op
// dispatch and index arithmetic over 256 lanes, not instruction width.
//
// Wide is the runtime engine of every batch unit; the single-word Simulator
// stays as the reference it is tested against, bit for bit.
//
// The work unit stays 64 lanes. A Wide block carries up to 4 consecutive
// units, and sub-word w draws every random number from unit w's own RNG: samplers
// are instantiated per sub-word (4 independent geometric skip streams per
// rate class, sharing one classTables), and every per-op sampling step is
// guarded per sub-word exactly like the single-word engine's applyMasked
// guards the whole op. An op whose mask word w is zero consumes nothing from
// stream w; an op whose mask word w is nonzero performs, in order, exactly
// the sampling work Simulator would perform for that op on those 64 lanes.
// Together with circuit.Builder.MaskedRound's canonical per-stabilizer entry
// order, that makes a wide block bit-exact with 4 serial Simulator units:
// same events, same readouts, same final measurements, per sub-word.
//
// A block with fewer than 4 units (a range edge) leaves the missing units'
// sub-words absent: Reset gets a nil RNG for them, and an absent sub-word
// draws nothing and stays all zero — frame, leakage, events and final
// detectors — so every present sub-word still matches its narrow unit.
//
// Plane layout is flat with stride BlockWords: word w of qubit q's X plane
// is x[q*BlockWords+w]. All exported slices alias internal buffers in this
// layout, which is exactly the packed shape core.LanePolicies consumes.
type Wide struct {
	Layout *surfacecode.Layout
	Noise  noise.Params
	// Basis is the memory basis, as in the single-word simulator.
	Basis surfacecode.Kind
	// TrackML maintains the multi-level readout bit-planes; see Simulator.
	TrackML bool

	rng [BlockWords]*stats.RNG
	// live is AllLanes on the sub-words Reset bound an RNG to and 0 on the
	// absent ones; RunRound applies its ops under it.
	live Block

	x, z   []uint64 // [NumQubits*BlockWords] Pauli frame planes
	leaked []uint64 // [NumQubits*BlockWords] leakage plane

	round    int
	syndrome []uint64 // [NumParity*BlockWords] outcome words
	prev     []uint64
	events   []uint64

	mlParLeak  []uint64
	mlParVal   []uint64
	mlDataLeak []uint64
	mlDataVal  []uint64

	finalData []uint64 // [NumData*BlockWords]
	finalDet  []uint64 // [NumParity*BlockWords]

	rates *device.Rates
	classTables
	// Sampler streams per sub-word, flattened class-major with stride
	// BlockWords: xS[class*BlockWords+w] mirrors the single-word engine's
	// xS[class] for unit w of the block. Class-major order keeps the four
	// sub-word streams of one rate class on adjacent cache lines — the per-op
	// w-loops touch exactly those four in sequence.
	depolS []sampler
	leakS  []sampler
	seepS  []sampler
	mlS    []sampler
}

// NewWide returns a wide-block simulator for the layout. Call Reset with the
// 4 dedicated per-unit RNGs before running each block.
func NewWide(l *surfacecode.Layout, n noise.Params, basis surfacecode.Kind) *Wide {
	s := &Wide{
		Layout: l,
		Noise:  n,
		Basis:  basis,

		x:      make([]uint64, l.NumQubits*BlockWords),
		z:      make([]uint64, l.NumQubits*BlockWords),
		leaked: make([]uint64, l.NumQubits*BlockWords),

		syndrome:   make([]uint64, l.NumParity*BlockWords),
		prev:       make([]uint64, l.NumParity*BlockWords),
		events:     make([]uint64, l.NumParity*BlockWords),
		mlParLeak:  make([]uint64, l.NumParity*BlockWords),
		mlParVal:   make([]uint64, l.NumParity*BlockWords),
		mlDataLeak: make([]uint64, l.NumParity*BlockWords),
		mlDataVal:  make([]uint64, l.NumParity*BlockWords),
		finalData:  make([]uint64, l.NumData*BlockWords),
		finalDet:   make([]uint64, l.NumParity*BlockWords),
	}
	s.buildClasses()
	return s
}

// UseRates switches the wide simulator to per-site rates, exactly as
// Simulator.UseRates. Call before Reset; survives it.
func (s *Wide) UseRates(r *device.Rates) {
	s.rates = r
	if r != nil {
		s.Noise = r.Base
	}
	s.buildClasses()
}

func (s *Wide) buildClasses() {
	s.classTables = buildClassTables(s.Layout, s.Noise, s.rates)
	s.depolS = make([]sampler, len(s.depolV)*BlockWords)
	s.leakS = make([]sampler, len(s.leakV)*BlockWords)
	s.seepS = make([]sampler, len(s.seepV)*BlockWords)
	s.mlS = make([]sampler, len(s.mlV)*BlockWords)
}

// Reset clears all frame state and rebinds the per-sub-word random sources
// for a fresh block. rngs[w] must be unit w's dedicated RNG — the same one
// the single-word engine would receive for that unit — and the sampler reset
// order per stream matches Simulator.Reset exactly. A nil rngs[w] marks
// sub-word w absent for the block: its samplers are not reset, and it takes
// no round-start noise, no RunRound op and no final measurement. Masked op
// sequences must leave it out of every mask, as MaskedRound does for a
// sub-word its active mask leaves zero.
func (s *Wide) Reset(rngs [BlockWords]*stats.RNG) {
	s.rng = rngs
	s.round = 0
	for i := range s.x {
		s.x[i], s.z[i], s.leaked[i] = 0, 0, 0
	}
	for i := range s.syndrome {
		s.syndrome[i], s.prev[i], s.events[i] = 0, 0, 0
		s.mlParLeak[i], s.mlParVal[i] = 0, 0
		s.mlDataLeak[i], s.mlDataVal[i] = 0, 0
	}
	for w, rng := range rngs {
		s.live[w] = 0
		if rng == nil {
			continue
		}
		s.live[w] = AllLanes
		for i := range s.depolV {
			s.depolS[i*BlockWords+w].reset(s.depolV[i], rng)
		}
		for i := range s.leakV {
			s.leakS[i*BlockWords+w].reset(s.leakV[i], rng)
		}
		for i := range s.seepV {
			s.seepS[i*BlockWords+w].reset(s.seepV[i], rng)
		}
		for i := range s.mlV {
			pml := 0.0
			if s.TrackML {
				pml = s.mlV[i]
			}
			s.mlS[i*BlockWords+w].reset(pml, rng)
		}
	}
}

// blk returns the Block of plane p at index q (stride-BlockWords access).
func blk(p []uint64, q int) *Block { return (*Block)(p[q*BlockWords:]) }

// Round returns the number of completed rounds.
func (s *Wide) Round() int { return s.round }

// LeakedBlock returns the leakage plane block of qubit q: bit i of word w is
// sub-word w lane i's leakage state.
func (s *Wide) LeakedBlock(q int) Block { return *blk(s.leaked, q) }

// LeakedDataWords returns the leakage planes of all data qubits in the flat
// stride-BlockWords layout, aliasing internal state.
func (s *Wide) LeakedDataWords() []uint64 { return s.leaked[:s.Layout.NumData*BlockWords] }

// MLParityLeak returns the flat is-leak planes of the latest round's
// per-stabilizer multi-level classifications (aliased; zero unless TrackML).
func (s *Wide) MLParityLeak() []uint64 { return s.mlParLeak }

// MLParityVal returns the flat value planes of the latest round's
// per-stabilizer multi-level classifications (aliased).
func (s *Wide) MLParityVal() []uint64 { return s.mlParVal }

// LeakedCounts returns the number of (lane, qubit) pairs currently leaked
// among the active lanes of the block, split by qubit type.
func (s *Wide) LeakedCounts(active Block) (data, parity int) {
	for q := 0; q < s.Layout.NumData; q++ {
		lk := blk(s.leaked, q)
		data += bits.OnesCount64(lk[0]&active[0]) + bits.OnesCount64(lk[1]&active[1]) +
			bits.OnesCount64(lk[2]&active[2]) + bits.OnesCount64(lk[3]&active[3])
	}
	for q := s.Layout.NumData; q < s.Layout.NumQubits; q++ {
		lk := blk(s.leaked, q)
		parity += bits.OnesCount64(lk[0]&active[0]) + bits.OnesCount64(lk[1]&active[1]) +
			bits.OnesCount64(lk[2]&active[2]) + bits.OnesCount64(lk[3]&active[3])
	}
	return data, parity
}

// RunRound applies round-start noise and executes one syndrome extraction
// round on the block; every op applies to every lane of every present
// sub-word (static schedules). The returned slice holds the flat
// stride-BlockWords detection event planes and aliases an internal buffer
// valid until the next call.
func (s *Wide) RunRound(ops []circuit.Op) []uint64 {
	s.beginRound()
	for _, op := range ops {
		s.applyMasked(op, s.live)
	}
	return s.finishRound()
}

// RunRoundMasked is RunRound for a lane-masked op sequence produced by
// circuit.Builder.MaskedRound with up to BlockLanes plans: word w of each
// op's mask drives sub-word w.
func (s *Wide) RunRoundMasked(ops []circuit.MaskedOp) []uint64 {
	s.beginRound()
	for _, op := range ops {
		s.applyMasked(op.Op, op.Mask)
	}
	return s.finishRound()
}

func (s *Wide) beginRound() {
	s.round++
	if s.TrackML {
		for i := range s.mlDataLeak {
			s.mlDataLeak[i], s.mlDataVal[i] = 0, 0
		}
	}
	s.roundStartNoise()
}

func (s *Wide) finishRound() []uint64 {
	for i := range s.Layout.Stabilizers {
		st := &s.Layout.Stabilizers[i]
		ev, sy, pr := blk(s.events, i), blk(s.syndrome, i), blk(s.prev, i)
		if s.round == 1 {
			if st.Kind == s.Basis {
				*ev = *sy
			} else {
				*ev = Block{}
			}
		} else {
			ev[0] = sy[0] ^ pr[0]
			ev[1] = sy[1] ^ pr[1]
			ev[2] = sy[2] ^ pr[2]
			ev[3] = sy[3] ^ pr[3]
		}
	}
	copy(s.prev, s.syndrome)
	return s.events
}

func (s *Wide) applyMasked(op circuit.Op, mask Block) {
	if mask == (Block{}) {
		return
	}
	switch op.Kind {
	case circuit.OpH:
		s.hadamard(op.Q0, mask)
	case circuit.OpCNOT:
		s.cnot(op.Q0, op.Q1, mask)
	case circuit.OpMeasure:
		for w := 0; w < BlockWords; w++ {
			if mask[w] == 0 {
				continue
			}
			out := s.measureZWordW(w, op.Q0, mask[w])
			if op.Stab < 0 {
				continue
			}
			i := op.Stab*BlockWords + w
			s.syndrome[i] = (s.syndrome[i] &^ mask[w]) | out
			if s.TrackML {
				leak, val := s.classifyMLW(w, op.Q0, out, mask[w])
				s.mlParLeak[i] = (s.mlParLeak[i] &^ mask[w]) | leak
				s.mlParVal[i] = (s.mlParVal[i] &^ mask[w]) | val
				if op.DataWire {
					s.mlDataLeak[i] = (s.mlDataLeak[i] &^ mask[w]) | leak
					s.mlDataVal[i] = (s.mlDataVal[i] &^ mask[w]) | val
				}
			}
		}
	case circuit.OpReset:
		for w := 0; w < BlockWords; w++ {
			if mask[w] != 0 {
				s.resetW(w, op.Q0, mask[w])
			}
		}
	case circuit.OpSwapReturn:
		s.cnot(op.Q0, op.Q1, mask)
		s.cnot(op.Q1, op.Q0, mask)
	case circuit.OpCondReturn:
		if !s.TrackML {
			panic("batch: OpCondReturn requires TrackML")
		}
		for w := 0; w < BlockWords; w++ {
			if mask[w] == 0 {
				continue
			}
			var squash uint64
			if op.Stab >= 0 {
				squash = s.mlDataLeak[op.Stab*BlockWords+w] & mask[w]
			}
			if ret := mask[w] &^ squash; ret != 0 {
				// A block CNOT restricted to sub-word w acts on w alone.
				var rb Block
				rb[w] = ret
				s.cnot(op.Q0, op.Q1, rb)
				s.cnot(op.Q1, op.Q0, rb)
			}
			if squash != 0 {
				s.resetW(w, op.Q0, squash)
				i := op.Q1*BlockWords + w
				s.x[i] = (s.x[i] &^ squash) | (s.rng[w].Uint64() & squash)
				s.z[i] = (s.z[i] &^ squash) | (s.rng[w].Uint64() & squash)
			}
		}
	case circuit.OpLeakISWAP:
		for w := 0; w < BlockWords; w++ {
			if mask[w] != 0 {
				s.leakISWAPW(w, op.Q0, op.Q1, mask[w])
			}
		}
	default:
		panic(fmt.Sprintf("batch: unknown op kind %d", op.Kind))
	}
}

// FinalMeasure performs the transversal data measurement in the memory basis
// and returns the flat outcome-flip planes (aliasing an internal buffer).
func (s *Wide) FinalMeasure(ops []circuit.Op) []uint64 {
	for _, op := range ops {
		if op.Kind != circuit.OpMeasure {
			continue
		}
		for w := 0; w < BlockWords; w++ {
			if s.live[w] == 0 {
				s.finalData[op.Q0*BlockWords+w] = 0
				continue
			}
			if s.Basis == surfacecode.KindX {
				s.finalData[op.Q0*BlockWords+w] = s.measureXWordW(w, op.Q0, AllLanes)
			} else {
				s.finalData[op.Q0*BlockWords+w] = s.measureZWordW(w, op.Q0, AllLanes)
			}
		}
	}
	return s.finalData
}

// FinalDetectors folds the transversal measurement into the last detector
// layer for the stabilizers matching the memory basis, per lane.
func (s *Wide) FinalDetectors(finalData []uint64) []uint64 {
	out := s.finalDet
	for i := range s.Layout.Stabilizers {
		st := &s.Layout.Stabilizers[i]
		ob := blk(out, i)
		if st.Kind != s.Basis {
			*ob = Block{}
			continue
		}
		var par Block
		for _, q := range st.Data {
			fq := blk(finalData, q)
			par[0] ^= fq[0]
			par[1] ^= fq[1]
			par[2] ^= fq[2]
			par[3] ^= fq[3]
		}
		pr := blk(s.prev, i)
		ob[0] = par[0] ^ pr[0]
		ob[1] = par[1] ^ pr[1]
		ob[2] = par[2] ^ pr[2]
		ob[3] = par[3] ^ pr[3]
	}
	return out
}

// FinalRound performs the transversal data measurement and returns the flat
// final detector planes plus the packed logical observable flips per
// sub-word (det aliases an internal buffer).
func (s *Wide) FinalRound(ops []circuit.Op) (det []uint64, obs Block) {
	final := s.FinalMeasure(ops)
	return s.FinalDetectors(final), s.ObservableFlip(final)
}

// ObservableFlip returns the measured logical flip of every lane: the parity
// of the final data outcomes over the logical support.
func (s *Wide) ObservableFlip(finalData []uint64) Block {
	var par Block
	for _, q := range s.Layout.LogicalSupport(s.Basis) {
		fq := blk(finalData, q)
		par[0] ^= fq[0]
		par[1] ^= fq[1]
		par[2] ^= fq[2]
		par[3] ^= fq[3]
	}
	return par
}

// InjectX flips the X frame of qubit q on the given lanes (tests).
func (s *Wide) InjectX(q int, lanes Block) {
	xq, lk := blk(s.x, q), blk(s.leaked, q)
	for w := 0; w < BlockWords; w++ {
		xq[w] ^= lanes[w] &^ lk[w]
	}
}

// InjectZ flips the Z frame of qubit q on the given lanes (tests).
func (s *Wide) InjectZ(q int, lanes Block) {
	zq, lk := blk(s.z, q), blk(s.leaked, q)
	for w := 0; w < BlockWords; w++ {
		zq[w] ^= lanes[w] &^ lk[w]
	}
}

// InjectLeak forces qubit q into the leaked state on the given lanes.
func (s *Wide) InjectLeak(q int, lanes Block) {
	for w := 0; w < BlockWords; w++ {
		s.leakMaskW(w, q, lanes[w])
	}
}

// ------------------------------------------------------------ primitives --

// depolCouplerClass returns the index of sub-word 0's depolarizing sampler
// of the (a, b) coupler in depolS (sub-word w's is w further on), falling
// back to the base class for non-coupler pairs.
func (s *Wide) depolCouplerClass(a, b int) int {
	cls := s.depolBase
	if s.rates != nil {
		if i := s.rates.CouplerIndex(a, b); i >= 0 {
			cls = s.depolC[i]
		}
	}
	return int(cls) * BlockWords
}

// transportAt returns the leakage-transport probability of the (a, b)
// coupler (rate lookup only, no RNG).
func (s *Wide) transportAt(a, b int) float64 {
	if s.rates == nil {
		return s.Noise.PTransport
	}
	return s.rates.TransportP(a, b)
}

// leakMaskW leaks the given lanes of sub-word w of q, clearing their frames.
func (s *Wide) leakMaskW(w, q int, m uint64) {
	if m == 0 {
		return
	}
	i := q*BlockWords + w
	s.leaked[i] |= m
	s.x[i] &^= m
	s.z[i] &^= m
}

// unleakMaskW returns the given lanes of sub-word w of q to the
// computational basis in a uniformly random state.
func (s *Wide) unleakMaskW(w, q int, m uint64) {
	if m == 0 {
		return
	}
	i := q*BlockWords + w
	s.leaked[i] &^= m
	s.x[i] = (s.x[i] &^ m) | (s.rng[w].Uint64() & m)
	s.z[i] = (s.z[i] &^ m) | (s.rng[w].Uint64() & m)
}

// depolarize1MaskW applies an independent uniform X/Y/Z to each set lane of
// sub-word w.
func (s *Wide) depolarize1MaskW(w, q int, m uint64) {
	i := q*BlockWords + w
	for ; m != 0; m &= m - 1 {
		bit := m & -m
		switch s.rng[w].IntN(3) {
		case 0:
			s.x[i] ^= bit
		case 1:
			s.z[i] ^= bit
		default:
			s.x[i] ^= bit
			s.z[i] ^= bit
		}
	}
}

// applyPauliLaneW applies I/X/Y/Z (p = 0..3) to one lane of sub-word w of q,
// skipping leaked lanes.
func (s *Wide) applyPauliLaneW(w, q int, bit uint64, p int) {
	i := q*BlockWords + w
	if s.leaked[i]&bit != 0 {
		return
	}
	switch p {
	case 1:
		s.x[i] ^= bit
	case 2:
		s.x[i] ^= bit
		s.z[i] ^= bit
	case 3:
		s.z[i] ^= bit
	}
}

// depolarize2MaskW applies an independent uniform non-identity two-qubit
// Pauli to each set lane of sub-word w of the pair (a, b).
func (s *Wide) depolarize2MaskW(w, a, b int, m uint64) {
	for ; m != 0; m &= m - 1 {
		bit := m & -m
		for {
			pa, pb := s.rng[w].IntN(4), s.rng[w].IntN(4)
			if pa == 0 && pb == 0 {
				continue
			}
			s.applyPauliLaneW(w, a, bit, pa)
			s.applyPauliLaneW(w, b, bit, pb)
			break
		}
	}
}

// classifyMLW mirrors Simulator.classifyML on sub-word w.
func (s *Wide) classifyMLW(w, q int, out, mask uint64) (leak, val uint64) {
	leak = s.leaked[q*BlockWords+w] & mask
	val = out &^ leak
	for errm := s.mlS[int(s.mlQ[q])*BlockWords+w].next() & mask; errm != 0; errm &= errm - 1 {
		bit := errm & -errm
		switch {
		case leak&bit != 0: // |L> misread as |0> or |1>
			leak &^= bit
			if s.rng[w].IntN(2) == 1 {
				val |= bit
			}
		case val&bit != 0: // |1> misread as |0> or |L>
			val &^= bit
			if s.rng[w].IntN(2) == 1 {
				leak |= bit
			}
		default: // |0> misread as |1> or |L>
			if s.rng[w].IntN(2) == 0 {
				val |= bit
			} else {
				leak |= bit
			}
		}
	}
	return leak, val
}

// ----------------------------------------------------------------- gates --

// hadamard and cnot apply their frame action and noise tail per sub-word.
// The samplers' countdowns and leakMaskW inline, and every other per-lane
// handler is called only on a non-zero mask, so a sub-word where no sampler
// fires and no operand is leaked makes no calls. Within a sub-word the
// sampling order is exactly the single-word engine's.
func (s *Wide) hadamard(q int, mask Block) {
	xq, zq, lk := blk(s.x, q), blk(s.z, q), blk(s.leaked, q)
	c := int(s.depolQ[q]) * BlockWords
	for w := 0; w < BlockWords; w++ {
		if mask[w] == 0 {
			continue
		}
		sw := mask[w] &^ lk[w]
		x, z := xq[w], zq[w]
		xq[w] = (z & sw) | (x &^ sw)
		zq[w] = (x & sw) | (z &^ sw)
		if m := s.depolS[c+w].next() & sw; m != 0 {
			s.depolarize1MaskW(w, q, m)
		}
	}
}

// cnot's noise tail per sub-word: two-qubit depolarizing on unleaked lanes,
// leakage injection on the control then the target, then the lanes with
// exactly one leaked operand.
func (s *Wide) cnot(c, t int, mask Block) {
	xc, zc, lkc := blk(s.x, c), blk(s.z, c), blk(s.leaked, c)
	xt, zt, lkt := blk(s.x, t), blk(s.z, t), blk(s.leaked, t)
	cd := s.depolCouplerClass(c, t)
	cc, ct := int(s.leakQ[c])*BlockWords, int(s.leakQ[t])*BlockWords
	leakOn := s.Noise.LeakageEnabled
	for w := 0; w < BlockWords; w++ {
		mw := mask[w]
		if mw == 0 {
			continue
		}
		lc, lt := lkc[w]&mw, lkt[w]&mw
		both := mw &^ (lc | lt)
		xt[w] ^= xc[w] & both
		zc[w] ^= zt[w] & both
		if m := s.depolS[cd+w].next() & both; m != 0 {
			s.depolarize2MaskW(w, c, t, m)
		}
		if leakOn {
			s.leakMaskW(w, c, s.leakS[cc+w].next()&both)
			s.leakMaskW(w, t, s.leakS[ct+w].next()&both)
		}
		if m := lc ^ lt; m != 0 {
			s.leakedOperandsW(w, c, t, lt, m)
		}
	}
}

// leakedOperandsW handles the lanes m of sub-word w where exactly one CNOT
// operand is leaked (lt marks those where it is the target): a random Pauli
// on the unleaked operand, then leakage transport with probability
// PTransport (Section 5.2.2).
func (s *Wide) leakedOperandsW(w, c, t int, lt, m uint64) {
	for ; m != 0; m &= m - 1 {
		bit := m & -m
		u, l := t, c
		if lt&bit != 0 {
			u, l = c, t
		}
		s.applyPauliLaneW(w, u, bit, s.rng[w].IntN(4))
		if s.rng[w].Bool(s.transportAt(c, t)) {
			s.leakMaskW(w, u, bit)
			if s.Noise.Transport == noise.TransportExchange {
				s.unleakMaskW(w, l, bit)
			}
		}
	}
}

// leakISWAPW mirrors Simulator.leakISWAP on sub-word w. DQLR epilogue ops
// are rare (one per planned LRC), so the per-sub-word form costs nothing and
// keeps the lane-partitioned case analysis identical to the single-word
// engine.
func (s *Wide) leakISWAPW(w, d, p int, mask uint64) {
	n := &s.Noise
	id, ip := d*BlockWords+w, p*BlockWords+w
	ld, lp := s.leaked[id]&mask, s.leaked[ip]&mask
	caseD := ld               // leaked data: return to computational basis
	caseP := lp &^ ld         // leaked parity only: leaked-CNOT-operand behavior
	rest := mask &^ (ld | lp) // neither leaked

	if caseD != 0 {
		s.unleakMaskW(w, d, caseD)
		s.x[ip] ^= caseD &^ lp // p receives the |1> excitation where unleaked
	}
	for m := caseP; m != 0; m &= m - 1 {
		bit := m & -m
		s.applyPauliLaneW(w, d, bit, s.rng[w].IntN(4))
		if s.rng[w].Bool(s.transportAt(d, p)) {
			s.leakMaskW(w, d, bit)
			if n.Transport == noise.TransportExchange {
				s.unleakMaskW(w, p, bit)
			}
		}
	}
	// Leaked-parity lanes take no CX-grade tail noise (scalar early return).
	tail := caseD | rest
	if n.LeakageEnabled {
		// Reset failure on p (x[p] set) excites d with probability 1/2.
		if excite := rest & s.x[ip]; excite != 0 {
			half := s.rng[w].Uint64() & excite
			if half != 0 {
				s.leakMaskW(w, d, half)
				s.x[ip] &^= half
				tail &^= half
			}
		}
	}
	s.depolarize2MaskW(w, d, p, s.depolS[s.depolCouplerClass(d, p)+w].next()&tail)
	if n.LeakageEnabled {
		s.leakMaskW(w, d, s.leakS[int(s.leakQ[d])*BlockWords+w].next()&tail)
		s.leakMaskW(w, p, s.leakS[int(s.leakQ[p])*BlockWords+w].next()&tail)
	}
}

// measureZWordW returns the two-level Z-basis outcome word for the masked
// lanes of sub-word w of qubit q.
func (s *Wide) measureZWordW(w, q int, mask uint64) uint64 {
	i := q*BlockWords + w
	lk := s.leaked[i] & mask
	out := s.x[i] & mask &^ lk
	if lk != 0 {
		out |= s.rng[w].Uint64() & lk
	}
	return out ^ (s.depolS[int(s.depolQ[q])*BlockWords+w].next() & mask &^ lk)
}

// measureXWordW is measureZWordW in the X basis.
func (s *Wide) measureXWordW(w, q int, mask uint64) uint64 {
	i := q*BlockWords + w
	lk := s.leaked[i] & mask
	out := s.z[i] & mask &^ lk
	if lk != 0 {
		out |= s.rng[w].Uint64() & lk
	}
	return out ^ (s.depolS[int(s.depolQ[q])*BlockWords+w].next() & mask &^ lk)
}

func (s *Wide) resetW(w, q int, mask uint64) {
	i := q*BlockWords + w
	s.leaked[i] &^= mask
	s.z[i] &^= mask
	// Initialization error: |1> instead of |0> on masked lanes.
	s.x[i] = (s.x[i] &^ mask) | (s.depolS[int(s.depolQ[q])*BlockWords+w].next() & mask)
}

func (s *Wide) roundStartNoise() {
	n := &s.Noise
	nd := s.Layout.NumData
	for q := 0; q < nd; q++ {
		cd := int(s.depolQ[q]) * BlockWords
		if !n.LeakageEnabled {
			for w := 0; w < BlockWords; w++ {
				if s.live[w] == 0 {
					continue
				}
				if m := s.depolS[cd+w].next(); m != 0 {
					s.depolarize1MaskW(w, q, m)
				}
			}
			continue
		}
		cs, cl := int(s.seepQ[q])*BlockWords, int(s.leakQ[q])*BlockWords
		lk := blk(s.leaked, q)
		for w := 0; w < BlockWords; w++ {
			if s.live[w] == 0 {
				continue
			}
			lkw := lk[w]
			if lkw != 0 {
				s.unleakMaskW(w, q, s.seepS[cs+w].next()&lkw)
			}
			// Lanes leaked at round start (even if just seeped) take no
			// further round-start noise, as in the scalar simulator.
			lm := s.leakS[cl+w].next() &^ lkw
			s.leakMaskW(w, q, lm)
			if m := s.depolS[cd+w].next() &^ (lkw | lm); m != 0 {
				s.depolarize1MaskW(w, q, m)
			}
		}
	}
}
