// Package sim implements a leakage-aware Pauli-frame simulator for surface
// code memory experiments. It plays the role of the paper's Stim-plus-leakage
// simulation infrastructure (Section 5.3): Pauli errors are tracked as X/Z
// flip frames relative to a noiseless reference execution, and each qubit
// additionally carries a leakage flag. Gates touching a leaked qubit follow
// the paper's Section 5.2.2 semantics: the gate's frame action is suppressed,
// the unleaked operand of a CNOT suffers a uniformly random Pauli, and
// leakage transports to it with probability 0.1. Measurements of leaked
// qubits return random outcomes under the standard two-level discriminator
// and are classified as |L> (with error rate 10p) by the multi-level
// discriminator used by ERASER+M.
package sim

import (
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// MLClass is a multi-level discriminator outcome.
type MLClass uint8

const (
	// ML0 and ML1 are the computational-basis outcomes.
	ML0 MLClass = 0
	ML1 MLClass = 1
	// MLLeak is the |L> outcome.
	MLLeak MLClass = 2
	// MLNone marks measurements that did not happen (e.g. no LRC on a
	// stabilizer this round).
	MLNone MLClass = 3
)

// RoundResult is the classical record produced by one syndrome extraction
// round: the syndrome, the detection events (XOR with the previous round's
// syndrome; X-stabilizer events are defined from round 2 onward because
// their first measurement is reference-random), and the multi-level readout
// classifications when a policy wants them.
type RoundResult struct {
	// Round is the 1-based round index.
	Round int
	// Syndrome holds one bit per stabilizer.
	Syndrome []uint8
	// Events holds the detection events per stabilizer.
	Events []uint8
	// MLParity holds the multi-level classification of each stabilizer's
	// measured wire (parity qubit, or the swapped data qubit in LRC rounds).
	MLParity []MLClass
	// MLData holds, per stabilizer, the classification of the data qubit
	// measured during an LRC (MLNone when the stabilizer had no LRC).
	MLData []MLClass
}

// Simulator holds the frame state for one shot of a memory experiment.
type Simulator struct {
	Layout *surfacecode.Layout
	Noise  noise.Params
	// Basis is the memory basis: KindZ (the default; data prepared in |0>,
	// measured in Z) or KindX (data prepared in |+>, measured in X). The
	// basis decides which stabilizer kind is deterministic in round 1,
	// which final frame bit a data measurement reads, and which logical
	// operator the observable tracks.
	Basis surfacecode.Kind

	rng    *stats.RNG
	rates  *device.Rates // per-site rates; nil = uniform Noise scalars
	x, z   []bool        // Pauli frame
	leaked []bool

	round    int
	syndrome []uint8
	prev     []uint8
	events   []uint8
	mlPar    []MLClass
	mlData   []MLClass

	finalData []uint8 // transversal data measurement outcomes (flips)
	finalDet  []uint8 // final detector layer buffer
}

// New returns a memory-Z simulator for one shot. rng must be dedicated to
// this shot.
func New(l *surfacecode.Layout, n noise.Params, rng *stats.RNG) *Simulator {
	return NewMemory(l, n, rng, surfacecode.KindZ)
}

// NewMemory returns a simulator for a memory experiment in the given basis.
func NewMemory(l *surfacecode.Layout, n noise.Params, rng *stats.RNG, basis surfacecode.Kind) *Simulator {
	s := &Simulator{
		Layout: l,
		Noise:  n,
		Basis:  basis,
		rng:    rng,
		x:      make([]bool, l.NumQubits),
		z:      make([]bool, l.NumQubits),
		leaked: make([]bool, l.NumQubits),

		syndrome: make([]uint8, l.NumParity),
		prev:     make([]uint8, l.NumParity),
		events:   make([]uint8, l.NumParity),
		mlPar:    make([]MLClass, l.NumParity),
		mlData:   make([]MLClass, l.NumParity),
	}
	return s
}

// Reset returns the simulator to the start-of-shot state, reusing every
// internal buffer, and rebinds the random source. rng must be dedicated to
// the new shot. Experiment workers run many shots through one Simulator via
// Reset instead of allocating a fresh instance per shot.
func (s *Simulator) Reset(rng *stats.RNG) {
	s.rng = rng
	s.round = 0
	for i := range s.x {
		s.x[i], s.z[i], s.leaked[i] = false, false, false
	}
	for i := range s.syndrome {
		s.syndrome[i], s.prev[i], s.events[i] = 0, 0, 0
	}
}

// UseRates switches the simulator to per-site rates from a resolved device
// profile; Noise is rebound to the profile's base (which still supplies the
// device-wide transport model and leakage enable). A uniform profile draws
// the exact same random sequence as the scalar path, so its shots are
// bit-identical to the profile-free simulator's. Survives Reset.
func (s *Simulator) UseRates(r *device.Rates) {
	s.rates = r
	if r != nil {
		s.Noise = r.Base
	}
}

// Per-site rate lookups: the scalar Noise fields when no profile is
// installed, the site's calibrated rate otherwise.

func (s *Simulator) pAt(q int) float64 {
	if s.rates == nil {
		return s.Noise.P
	}
	return s.rates.QP[q]
}

func (s *Simulator) leakAt(q int) float64 {
	if s.rates == nil {
		return s.Noise.PLeak
	}
	return s.rates.QLeak[q]
}

func (s *Simulator) seepAt(q int) float64 {
	if s.rates == nil {
		return s.Noise.PSeep
	}
	return s.rates.QSeep[q]
}

func (s *Simulator) mlAt(q int) float64 {
	if s.rates == nil {
		return s.Noise.PMultiLevelError
	}
	return s.rates.QML[q]
}

func (s *Simulator) gateAt(a, b int) float64 {
	if s.rates == nil {
		return s.Noise.P
	}
	return s.rates.GateP(a, b)
}

func (s *Simulator) transportAt(a, b int) float64 {
	if s.rates == nil {
		return s.Noise.PTransport
	}
	return s.rates.TransportP(a, b)
}

// Leaked reports whether qubit q is currently leaked (ground truth; used by
// the oracle policy, the LPR metric and speculation-accuracy accounting).
func (s *Simulator) Leaked(q int) bool { return s.leaked[q] }

// LeakedCounts returns the number of currently leaked data and parity
// qubits.
func (s *Simulator) LeakedCounts() (data, parity int) {
	for q, lk := range s.leaked {
		if !lk {
			continue
		}
		if s.Layout.IsData(q) {
			data++
		} else {
			parity++
		}
	}
	return data, parity
}

// SnapshotLeakedData writes the per-data-qubit leakage flags into dst.
func (s *Simulator) SnapshotLeakedData(dst []bool) {
	for q := 0; q < s.Layout.NumData; q++ {
		dst[q] = s.leaked[q]
	}
}

// RunRound applies round-start noise (data depolarization, environment
// leakage injection, seepage) and then executes ops, which must have been
// produced by circuit.Builder.Round. The returned RoundResult aliases
// internal buffers valid until the next call.
func (s *Simulator) RunRound(ops []circuit.Op) RoundResult {
	s.round++
	s.roundStartNoise()
	for i := range s.mlPar {
		s.mlPar[i] = MLNone
		s.mlData[i] = MLNone
	}
	for _, op := range ops {
		s.apply(op)
	}
	// Detection events. In round 1 only the stabilizers matching the memory
	// basis have a deterministic reference; the other kind's first
	// measurement is reference-random and its detectors start in round 2.
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
	return RoundResult{
		Round:    s.round,
		Syndrome: s.syndrome,
		Events:   s.events,
		MLParity: s.mlPar,
		MLData:   s.mlData,
	}
}

// FinalMeasure performs the transversal data measurement ending the memory
// experiment (Z basis for memory-Z, X basis for memory-X) and returns the
// outcome flips per data qubit.
func (s *Simulator) FinalMeasure(ops []circuit.Op) []uint8 {
	if s.finalData == nil {
		s.finalData = make([]uint8, s.Layout.NumData)
	}
	for _, op := range ops {
		if op.Kind != circuit.OpMeasure {
			continue
		}
		var bit uint8
		if s.Basis == surfacecode.KindX {
			bit = s.measureX(op.Q0)
		} else {
			bit, _ = s.measure(op.Q0)
		}
		s.finalData[op.Q0] = bit
	}
	return s.finalData
}

// measureX returns the X-basis outcome flip for qubit q: the Z frame decides
// the deviation from the reference |+>/|-> outcome.
func (s *Simulator) measureX(q int) uint8 {
	if s.leaked[q] {
		return s.rng.Bit()
	}
	var bit uint8
	if s.z[q] {
		bit = 1
	}
	if s.rng.Bool(s.pAt(q)) {
		bit ^= 1
	}
	return bit
}

// FinalDetectors folds the transversal data measurement into one last layer
// of detection events for the stabilizers matching the memory basis: the
// parity of the measured data bits over each stabilizer's support, compared
// with that stabilizer's last syndrome bit. The result is indexed by
// stabilizer index (the other kind's entries stay 0) and aliases a reusable
// internal buffer valid until the next call.
func (s *Simulator) FinalDetectors(finalData []uint8) []uint8 {
	if s.finalDet == nil {
		s.finalDet = make([]uint8, s.Layout.NumParity)
	}
	out := s.finalDet
	for i := range out {
		out[i] = 0
	}
	for i := range s.Layout.Stabilizers {
		st := &s.Layout.Stabilizers[i]
		if st.Kind != s.Basis {
			continue
		}
		var par uint8
		for _, q := range st.Data {
			par ^= finalData[q]
		}
		out[i] = par ^ s.prev[i]
	}
	return out
}

// ObservableFlip returns the measured logical flip: the parity of the final
// data outcomes over the logical operator matching the memory basis.
func (s *Simulator) ObservableFlip(finalData []uint8) uint8 {
	var par uint8
	for _, q := range s.Layout.LogicalSupport(s.Basis) {
		par ^= finalData[q]
	}
	return par
}

func (s *Simulator) roundStartNoise() {
	n := s.Noise
	for q := 0; q < s.Layout.NumData; q++ {
		if n.LeakageEnabled && s.leaked[q] {
			if s.rng.Bool(s.seepAt(q)) {
				s.unleak(q)
			}
			continue
		}
		if n.LeakageEnabled && s.rng.Bool(s.leakAt(q)) {
			s.leak(q)
			continue
		}
		if s.rng.Bool(s.pAt(q)) {
			s.depolarize1(q)
		}
	}
}

func (s *Simulator) apply(op circuit.Op) {
	switch op.Kind {
	case circuit.OpH:
		s.hadamard(op.Q0)
	case circuit.OpCNOT:
		s.cnot(op.Q0, op.Q1)
	case circuit.OpMeasure:
		bit, ml := s.measure(op.Q0)
		if op.Stab >= 0 {
			s.syndrome[op.Stab] = bit
			s.mlPar[op.Stab] = ml
			if op.DataWire {
				s.mlData[op.Stab] = ml
			}
		}
	case circuit.OpReset:
		s.reset(op.Q0)
	case circuit.OpSwapReturn:
		s.cnot(op.Q0, op.Q1)
		s.cnot(op.Q1, op.Q0)
	case circuit.OpCondReturn:
		// ERASER+M QSG rule (Section 4.6.2): if the LRC measurement saw the
		// data qubit in |L>, the parity qubit's held state is meaningless —
		// reset it and skip the return SWAP; otherwise return as usual.
		if op.Stab >= 0 && s.mlData[op.Stab] == MLLeak {
			s.reset(op.Q0)
			// The data qubit keeps its freshly reset |0> instead of the
			// state the reference circuit returns to it: a random deviation
			// in the frame picture. (When the classification was a false
			// |L>, this is exactly the cost of wrongly squashing the SWAP.)
			s.x[op.Q1] = s.rng.Bit() == 1
			s.z[op.Q1] = s.rng.Bit() == 1
		} else {
			s.cnot(op.Q0, op.Q1)
			s.cnot(op.Q1, op.Q0)
		}
	case circuit.OpLeakISWAP:
		s.leakISWAP(op.Q0, op.Q1)
	}
}

func (s *Simulator) hadamard(q int) {
	if s.leaked[q] {
		return
	}
	s.x[q], s.z[q] = s.z[q], s.x[q]
	if s.rng.Bool(s.pAt(q)) {
		s.depolarize1(q)
	}
}

func (s *Simulator) cnot(c, t int) {
	n := s.Noise
	lc, lt := s.leaked[c], s.leaked[t]
	switch {
	case !lc && !lt:
		s.x[t] = s.x[t] != s.x[c]
		s.z[c] = s.z[c] != s.z[t]
		if s.rng.Bool(s.gateAt(c, t)) {
			s.depolarize2(c, t)
		}
		if n.LeakageEnabled {
			if s.rng.Bool(s.leakAt(c)) {
				s.leak(c)
			}
			if s.rng.Bool(s.leakAt(t)) {
				s.leak(t)
			}
		}
	case lc != lt:
		// Exactly one operand leaked: random Pauli on the unleaked operand,
		// leakage transport with probability PTransport.
		u, l := t, c
		if lt {
			u, l = c, t
		}
		s.randomPauli(u)
		if s.rng.Bool(s.transportAt(c, t)) {
			s.leak(u)
			if n.Transport == noise.TransportExchange {
				s.unleak(l)
			}
		}
	default:
		// Both leaked: no coherent action in the computational basis.
	}
}

// leakISWAP models DQLR's LeakageISWAP (Appendix A.2): it returns a leaked
// data qubit d to the computational basis (the |2,0> population is moved to
// |1,1>, so the parity qubit p ends unleaked but excited and is reset right
// after). If the preceding parity reset failed (p holds |1>), the iSWAP in
// the |11>,|20> basis can excite an unleaked data qubit to |2> (Figure
// 19(b)); the data qubit's computational value is unresolved in the frame
// picture, so the excitation fires with probability 1/2.
func (s *Simulator) leakISWAP(d, p int) {
	n := s.Noise
	switch {
	case s.leaked[d]:
		s.unleak(d)
		// p receives the |1> excitation; it is reset immediately after, so
		// represent it as a deterministic flip.
		if !s.leaked[p] {
			s.x[p] = !s.x[p]
		}
	case s.leaked[p]:
		// A leaked parity qubit (reset failed to clear an earlier transport)
		// behaves like any leaked CNOT operand.
		s.randomPauli(d)
		if s.rng.Bool(s.transportAt(d, p)) {
			s.leak(d)
			if n.Transport == noise.TransportExchange {
				s.unleak(p)
			}
		}
		return
	default:
		// Reset failure on p leaves it in |1>; |11> -> |20> excites d.
		if n.LeakageEnabled && s.x[p] && s.rng.Bool(0.5) {
			s.leak(d)
			s.x[p] = false
			return
		}
	}
	// The LeakageISWAP has CX-grade fidelity: depolarizing and leakage
	// injection as for a CNOT.
	if s.rng.Bool(s.gateAt(d, p)) {
		s.depolarize2(d, p)
	}
	if n.LeakageEnabled {
		if s.rng.Bool(s.leakAt(d)) {
			s.leak(d)
		}
		if s.rng.Bool(s.leakAt(p)) {
			s.leak(p)
		}
	}
}

// measure returns the two-level outcome flip and the multi-level class for
// qubit q. Measurement does not disturb frames; a following reset clears
// them.
func (s *Simulator) measure(q int) (uint8, MLClass) {
	var bit uint8
	if s.leaked[q] {
		bit = s.rng.Bit() // two-level discriminator: random classification
	} else {
		bit = 0
		if s.x[q] {
			bit = 1
		}
		if s.rng.Bool(s.pAt(q)) {
			bit ^= 1
		}
	}
	ml := MLClass(bit)
	if s.leaked[q] {
		ml = MLLeak
	}
	if s.rng.Bool(s.mlAt(q)) {
		// Erroneous multi-level classification: uniform over the two wrong
		// classes.
		wrong := [2]MLClass{}
		k := 0
		for _, c := range [3]MLClass{ML0, ML1, MLLeak} {
			if c != ml {
				wrong[k] = c
				k++
			}
		}
		ml = wrong[s.rng.IntN(2)]
	}
	return bit, ml
}

func (s *Simulator) reset(q int) {
	s.leaked[q] = false
	s.x[q] = false
	s.z[q] = false
	if s.rng.Bool(s.pAt(q)) {
		s.x[q] = true // initialization error: |1> instead of |0>
	}
}

func (s *Simulator) leak(q int) {
	s.leaked[q] = true
	s.x[q] = false
	s.z[q] = false
}

func (s *Simulator) unleak(q int) {
	s.leaked[q] = false
	s.x[q] = s.rng.Bit() == 1 // random computational-basis state
	s.z[q] = s.rng.Bit() == 1
}

func (s *Simulator) depolarize1(q int) {
	switch s.rng.IntN(3) {
	case 0:
		s.x[q] = !s.x[q]
	case 1:
		s.z[q] = !s.z[q]
	default:
		s.x[q] = !s.x[q]
		s.z[q] = !s.z[q]
	}
}

func (s *Simulator) depolarize2(a, b int) {
	// Uniform over the 15 non-identity two-qubit Paulis: draw until the
	// pair (pa, pb) is not (I, I).
	for {
		pa, pb := s.rng.IntN(4), s.rng.IntN(4)
		if pa == 0 && pb == 0 {
			continue
		}
		s.applyPauli(a, pa)
		s.applyPauli(b, pb)
		return
	}
}

func (s *Simulator) randomPauli(q int) {
	s.applyPauli(q, s.rng.IntN(4))
}

// applyPauli applies I (0), X (1), Y (2) or Z (3) to the frame of q.
func (s *Simulator) applyPauli(q, p int) {
	if s.leaked[q] {
		return
	}
	switch p {
	case 1:
		s.x[q] = !s.x[q]
	case 2:
		s.x[q] = !s.x[q]
		s.z[q] = !s.z[q]
	case 3:
		s.z[q] = !s.z[q]
	}
}

// InjectX flips the X frame of qubit q; tests and the detector-graph
// calibration use it to plant deterministic errors.
func (s *Simulator) InjectX(q int) { s.x[q] = !s.x[q] }

// InjectZ flips the Z frame of qubit q.
func (s *Simulator) InjectZ(q int) { s.z[q] = !s.z[q] }

// InjectLeak forces qubit q into the leaked state.
func (s *Simulator) InjectLeak(q int) { s.leak(q) }
