package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

func noiseless() noise.Params { return noise.Standard(0) }

func newSim(t *testing.T, d int, n noise.Params, seed uint64) (*Simulator, *circuit.Builder) {
	t.Helper()
	l := surfacecode.MustNew(d)
	return New(l, n, stats.NewRNG(seed, 0)), circuit.NewBuilder(l)
}

// TestNoiselessRoundsAreQuiet: with zero noise every detector is silent,
// the final layer is consistent, and the observable is unflipped — for
// plain, LRC'd and DQLR rounds alike.
func TestNoiselessRoundsAreQuiet(t *testing.T) {
	l := surfacecode.MustNew(5)
	plans := []circuit.Plan{
		{},
		{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]},
			{Data: 12, Stab: l.SwapPrimary[12]}}},
		{LRCs: []circuit.LRC{{Data: 3, Stab: l.SwapPrimary[3]}}, CondReturn: true},
		{LRCs: []circuit.LRC{{Data: 7, Stab: l.SwapPrimary[7]}}, Protocol: circuit.ProtocolDQLR},
	}
	s := New(l, noiseless(), stats.NewRNG(1, 1))
	b := circuit.NewBuilder(l)
	for r := 1; r <= 8; r++ {
		plan := plans[(r-1)%len(plans)]
		res := s.RunRound(b.Round(plan))
		for i, e := range res.Events {
			if e != 0 {
				t.Fatalf("round %d: event on stabilizer %d without noise", r, i)
			}
		}
	}
	final := s.FinalMeasure(b.FinalMeasurement())
	for i, e := range s.FinalDetectors(final) {
		if e != 0 {
			t.Fatalf("final detector %d fired without noise", i)
		}
	}
	if s.ObservableFlip(final) != 0 {
		t.Fatal("observable flipped without noise")
	}
}

// TestSingleXErrorFlipsZNeighbors: an X frame injected on a data qubit
// before a round flips exactly its neighboring Z stabilizers, leaves X
// stabilizers silent, and flips the observable iff the qubit is in the
// logical support.
func TestSingleXErrorFlipsZNeighbors(t *testing.T) {
	l := surfacecode.MustNew(5)
	for q := 0; q < l.NumData; q++ {
		s := New(l, noiseless(), stats.NewRNG(3, uint64(q)))
		b := circuit.NewBuilder(l)
		s.RunRound(b.Round(circuit.Plan{})) // settle round 1
		s.InjectX(q)
		res := s.RunRound(b.Round(circuit.Plan{}))
		for i := range l.Stabilizers {
			want := uint8(0)
			if l.Stabilizers[i].Kind == surfacecode.KindZ && contains(l.DataZStabs[q], i) {
				want = 1
			}
			if res.Events[i] != want {
				t.Fatalf("q=%d: stabilizer %d event = %d, want %d", q, i, res.Events[i], want)
			}
		}
		final := s.FinalMeasure(b.FinalMeasurement())
		wantFlip := uint8(0)
		if l.DataRow[q] == 0 {
			wantFlip = 1
		}
		if s.ObservableFlip(final) != wantFlip {
			t.Fatalf("q=%d: observable flip = %d, want %d", q, s.ObservableFlip(final), wantFlip)
		}
	}
}

// TestSingleZErrorFlipsXNeighbors mirrors the X test for phase errors.
func TestSingleZErrorFlipsXNeighbors(t *testing.T) {
	l := surfacecode.MustNew(5)
	for q := 0; q < l.NumData; q++ {
		s := New(l, noiseless(), stats.NewRNG(4, uint64(q)))
		b := circuit.NewBuilder(l)
		s.RunRound(b.Round(circuit.Plan{}))
		s.InjectZ(q)
		res := s.RunRound(b.Round(circuit.Plan{}))
		for i := range l.Stabilizers {
			want := uint8(0)
			if l.Stabilizers[i].Kind == surfacecode.KindX && contains(l.DataXStabs[q], i) {
				want = 1
			}
			if res.Events[i] != want {
				t.Fatalf("q=%d: stabilizer %d event = %d, want %d", q, i, res.Events[i], want)
			}
		}
	}
}

// TestMeasurementErrorMakesTimePair: a single flipped syndrome bit produces
// an event in that round and the matching event in the next.
func TestMeasurementErrorMakesTimePair(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), stats.NewRNG(5, 0))
	b := circuit.NewBuilder(l)
	s.RunRound(b.Round(circuit.Plan{}))
	// Force a measurement flip by toggling an ancilla X frame mid-round:
	// inject right before round 2 on the ancilla wire.
	var zstab int = -1
	for i := range l.Stabilizers {
		if l.Stabilizers[i].Kind == surfacecode.KindZ {
			zstab = i
			break
		}
	}
	s.InjectX(l.Stabilizers[zstab].Ancilla)
	r2 := s.RunRound(b.Round(circuit.Plan{}))
	if r2.Events[zstab] != 1 {
		t.Fatal("flipped ancilla did not fire its detector")
	}
	r3 := s.RunRound(b.Round(circuit.Plan{}))
	if r3.Events[zstab] != 1 {
		t.Fatal("measurement-style error did not fire the paired detector next round")
	}
	for i, e := range r3.Events {
		if i != zstab && e != 0 {
			t.Fatalf("unexpected extra event on %d", i)
		}
	}
}

// TestLeakedMeasurementIsRandom: a leaked parity qubit measures 0/1 with
// roughly equal probability.
func TestLeakedMeasurementIsRandom(t *testing.T) {
	l := surfacecode.MustNew(3)
	zstab := -1
	for i := range l.Stabilizers {
		if l.Stabilizers[i].Kind == surfacecode.KindZ {
			zstab = i
			break
		}
	}
	anc := l.Stabilizers[zstab].Ancilla
	ones, trials := 0, 4000
	n := noiseless()
	rng := stats.NewRNG(6, 0)
	for i := 0; i < trials; i++ {
		var shot stats.RNG
		rng.Split(&shot, uint64(i))
		s := New(l, n, &shot)
		b := circuit.NewBuilder(l)
		s.InjectLeak(anc)
		res := s.RunRound(b.Round(circuit.Plan{}))
		ones += int(res.Syndrome[zstab])
	}
	f := float64(ones) / float64(trials)
	if f < 0.45 || f > 0.55 {
		t.Fatalf("leaked measurement frequency %v, want ~0.5", f)
	}
}

// TestResetClearsLeakage: parity qubits are reset every plain round, so
// injected parity leakage disappears by the end of the round.
func TestResetClearsLeakage(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	n.PTransport = 0 // isolate the reset effect
	s := New(l, n, stats.NewRNG(7, 0))
	b := circuit.NewBuilder(l)
	for q := l.NumData; q < l.NumQubits; q++ {
		s.InjectLeak(q)
	}
	s.RunRound(b.Round(circuit.Plan{}))
	if _, parity := s.LeakedCounts(); parity != 0 {
		t.Fatalf("%d parity qubits still leaked after a plain round", parity)
	}
}

// TestLRCClearsDataLeakage: a leaked data qubit is cleaned by a SWAP LRC
// (with transport disabled so the leakage cannot bounce to the parity).
func TestLRCClearsDataLeakage(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	n.PTransport = 0
	s := New(l, n, stats.NewRNG(8, 0))
	b := circuit.NewBuilder(l)
	const q = 4
	s.InjectLeak(q)
	s.RunRound(b.Round(circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}))
	if s.Leaked(q) {
		t.Fatal("LRC did not clear data-qubit leakage")
	}
}

// TestNoLRCKeepsDataLeakage: without an LRC a leaked data qubit stays
// leaked (transport and seepage disabled).
func TestNoLRCKeepsDataLeakage(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	n.PTransport = 0
	s := New(l, n, stats.NewRNG(9, 0))
	b := circuit.NewBuilder(l)
	const q = 4
	s.InjectLeak(q)
	for r := 0; r < 5; r++ {
		s.RunRound(b.Round(circuit.Plan{}))
	}
	if !s.Leaked(q) {
		t.Fatal("data leakage vanished without LRC, seepage, or transport")
	}
}

// TestTransportConservativeVsExchange: with transport probability 1, a CNOT
// between a leaked data qubit and its parity leaks the parity; the source
// stays leaked under the conservative model and returns under exchange.
func TestTransportConservativeVsExchange(t *testing.T) {
	for _, model := range []noise.TransportModel{noise.TransportConservative, noise.TransportExchange} {
		l := surfacecode.MustNew(3)
		n := noiseless()
		n.LeakageEnabled = true
		n.PTransport = 1
		n.Transport = model
		s := New(l, n, stats.NewRNG(10, uint64(model)))
		const q = 4
		s.InjectLeak(q)
		anc := l.Stabilizers[l.DataStabs[q][0]].Ancilla
		s.cnot(q, anc)
		if !s.Leaked(anc) {
			t.Fatalf("%v: transport did not leak the partner", model)
		}
		wantSource := model == noise.TransportConservative
		if s.Leaked(q) != wantSource {
			t.Fatalf("%v: source leaked = %v, want %v", model, s.Leaked(q), wantSource)
		}
	}
}

// TestMLClassification: the multi-level discriminator reports |L> for leaked
// qubits with error rate ~10p.
func TestMLClassification(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noise.Standard(1e-2) // PMultiLevelError = 0.1, measurable
	n.P = 0                   // no other noise
	n.PLeak, n.PSeep = 0, 0
	rng := stats.NewRNG(11, 0)
	s := New(l, n, rng)
	correct, trials := 0, 5000
	for i := 0; i < trials; i++ {
		s.leaked[0] = true
		if _, ml := s.measure(0); ml == MLLeak {
			correct++
		}
	}
	f := float64(correct) / float64(trials)
	if f < 0.87 || f > 0.93 {
		t.Fatalf("ML leak classification rate %v, want ~0.9", f)
	}
}

// TestCondReturnSquashesOnLeak: when the LRC'd data qubit reads |L>, the
// conditional return resets the parity qubit (clearing transported leakage)
// instead of swapping back.
func TestCondReturnSquashesOnLeak(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	n.PTransport = 1 // force the forward SWAP to transport leakage onto P
	s := New(l, n, stats.NewRNG(12, 0))
	b := circuit.NewBuilder(l)
	const q = 4
	stab := l.SwapPrimary[q]
	s.InjectLeak(q)
	s.RunRound(b.Round(circuit.Plan{
		LRCs:       []circuit.LRC{{Data: q, Stab: stab}},
		CondReturn: true,
	}))
	if s.Leaked(q) {
		t.Fatal("data qubit still leaked after LRC")
	}
	if s.Leaked(l.Stabilizers[stab].Ancilla) {
		t.Fatal("conditional return did not reset the transported parity leakage")
	}
}

// TestFrameGateInvolutions: H twice and CNOT twice are identity on frames
// (property-based over random frame states).
func TestFrameGateInvolutions(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	f := func(xa, za, xb, zb bool) bool {
		s := New(l, n, stats.NewRNG(13, 0))
		s.x[0], s.z[0], s.x[1], s.z[1] = xa, za, xb, zb
		s.hadamard(0)
		s.hadamard(0)
		s.cnot(0, 1)
		s.cnot(0, 1)
		return s.x[0] == xa && s.z[0] == za && s.x[1] == xb && s.z[1] == zb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCNOTPropagation: X on control spreads to target, Z on target spreads
// to control (the defining frame rules).
func TestCNOTPropagation(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), stats.NewRNG(14, 0))
	s.x[0] = true
	s.cnot(0, 1)
	if !s.x[1] {
		t.Fatal("X did not propagate control->target")
	}
	s2 := New(l, noiseless(), stats.NewRNG(14, 1))
	s2.z[1] = true
	s2.cnot(0, 1)
	if !s2.z[0] {
		t.Fatal("Z did not propagate target->control")
	}
}

// TestDQLRRemovesDataLeakage: the LeakageISWAP returns a leaked data qubit
// to the computational basis and the following reset leaves the parity
// clean.
func TestDQLRRemovesDataLeakage(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	s := New(l, n, stats.NewRNG(15, 0))
	b := circuit.NewBuilder(l)
	const q = 4
	s.InjectLeak(q)
	s.RunRound(b.Round(circuit.Plan{
		LRCs:     []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}},
		Protocol: circuit.ProtocolDQLR,
	}))
	if s.Leaked(q) {
		t.Fatal("DQLR did not clear data leakage")
	}
	if _, parity := s.LeakedCounts(); parity != 0 {
		t.Fatal("DQLR left parity leakage")
	}
}

// TestSnapshotAndCounts agree with Leaked.
func TestSnapshotAndCounts(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), stats.NewRNG(16, 0))
	s.InjectLeak(2)
	s.InjectLeak(10) // an ancilla
	d, p := s.LeakedCounts()
	if d != 1 || p != 1 {
		t.Fatalf("LeakedCounts = %d,%d, want 1,1", d, p)
	}
	snap := make([]bool, l.NumData)
	s.SnapshotLeakedData(snap)
	for q, want := range snap {
		if want != (q == 2) {
			t.Fatalf("snapshot[%d] = %v", q, want)
		}
	}
}

// TestXStabEventsStartRound2: X stabilizer detectors are defined from the
// second round (their first measurement is reference-random).
func TestXStabEventsStartRound2(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := New(l, noiseless(), stats.NewRNG(17, 0))
	b := circuit.NewBuilder(l)
	// Plant a Z error before the first round; X stabilizers must not fire in
	// round 1 events (they have no reference yet)... the frame reference
	// makes them fire only via the XOR with round 0, which is defined as
	// silent for Z stabs and skipped for X stabs.
	res := s.RunRound(b.Round(circuit.Plan{}))
	for i := range l.Stabilizers {
		if res.Events[i] != 0 {
			t.Fatalf("round-1 event on stabilizer %d in noiseless run", i)
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestLeakISWAPResetFailureExcites: DQLR's failure mode (Figure 19(b)) — a
// failed parity reset leaves |1> on the parity wire, and the LeakageISWAP
// can then excite the data qubit to |L>.
func TestLeakISWAPResetFailureExcites(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	excited, trials := 0, 2000
	rng := stats.NewRNG(21, 0)
	for i := 0; i < trials; i++ {
		var shot stats.RNG
		rng.Split(&shot, uint64(i))
		s := New(l, n, &shot)
		const q, p = 4, 9
		s.x[p] = true // parity reset failed: |1> instead of |0>
		s.leakISWAP(q, p)
		if s.Leaked(q) {
			excited++
		}
	}
	f := float64(excited) / float64(trials)
	// The data qubit's computational value is unresolved: excitation fires
	// with probability 1/2.
	if f < 0.44 || f > 0.56 {
		t.Fatalf("reset-failure excitation rate %v, want ~0.5", f)
	}
}

// TestLeakISWAPLeakedParity: a leaked parity operand behaves like a leaked
// CNOT operand (random Pauli + transport).
func TestLeakISWAPLeakedParity(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	n.PTransport = 1
	s := New(l, n, stats.NewRNG(22, 0))
	const q, p = 4, 9
	s.InjectLeak(p)
	s.leakISWAP(q, p)
	if !s.Leaked(q) {
		t.Fatal("transport with probability 1 did not leak the data qubit")
	}
}

// TestSeepageReturnsQubit: with seepage probability 1, a leaked data qubit
// returns to the computational basis at the next round start.
func TestSeepageReturnsQubit(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	n.PSeep = 1
	s := New(l, n, stats.NewRNG(23, 0))
	b := circuit.NewBuilder(l)
	s.InjectLeak(4)
	s.RunRound(b.Round(circuit.Plan{}))
	if s.Leaked(4) {
		t.Fatal("seepage with probability 1 did not return the qubit")
	}
}

// TestEnvLeakInjection: with environment leakage probability 1, every data
// qubit leaks at the round start.
func TestEnvLeakInjection(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.LeakageEnabled = true
	n.PLeak = 1
	n.PTransport = 0
	s := New(l, n, stats.NewRNG(24, 0))
	b := circuit.NewBuilder(l)
	s.RunRound(b.Round(circuit.Plan{}))
	d, _ := s.LeakedCounts()
	if d != l.NumData {
		t.Fatalf("%d of %d data qubits leaked with PLeak=1", d, l.NumData)
	}
}
