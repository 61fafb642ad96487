package batch

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

func noiseless() noise.Params { return noise.Standard(0) }

// unitRNGs returns the dedicated streams of a full block's four units.
func unitRNGs(seed uint64) [BlockWords]*stats.RNG {
	var rngs [BlockWords]*stats.RNG
	for w := range rngs {
		rngs[w] = stats.NewRNG(seed, uint64(w))
	}
	return rngs
}

func newWide(d int, n noise.Params, seed uint64) (*Wide, *circuit.Builder) {
	l := surfacecode.MustNew(d)
	s := NewWide(l, n, surfacecode.KindZ)
	s.Reset(unitRNGs(seed))
	return s, circuit.NewBuilder(l)
}

func fullBlock() Block { return BlockMask(BlockLanes) }

// plansOn returns a block's per-lane plans: p on the given lanes, no LRC on
// the others.
func plansOn(lanes Block, p circuit.Plan) []circuit.Plan {
	plans := make([]circuit.Plan, BlockLanes)
	for i := range plans {
		if lanes[i/Lanes]&(1<<uint(i%Lanes)) != 0 {
			plans[i] = p
		}
	}
	return plans
}

// flipX flips the X frame of qubit q on the given unleaked lanes.
func (s *Wide) flipX(q int, lanes Block) {
	xq, lk := blk(s.x, q), blk(s.leaked, q)
	for w := 0; w < BlockWords; w++ {
		xq[w] ^= lanes[w] &^ lk[w]
	}
}

// flipZ flips the Z frame of qubit q on the given unleaked lanes.
func (s *Wide) flipZ(q int, lanes Block) {
	zq, lk := blk(s.z, q), blk(s.leaked, q)
	for w := 0; w < BlockWords; w++ {
		zq[w] ^= lanes[w] &^ lk[w]
	}
}

// forceLeak forces qubit q into the leaked state on the given lanes.
func (s *Wide) forceLeak(q int, lanes Block) {
	for w := 0; w < BlockWords; w++ {
		s.leakMaskW(w, q, lanes[w])
	}
}

// TestLaneMask checks the partial-batch mask helper.
func TestLaneMask(t *testing.T) {
	if LaneMask(0) != 0 || LaneMask(64) != AllLanes || LaneMask(100) != AllLanes {
		t.Fatal("LaneMask extremes wrong")
	}
	if m := LaneMask(3); m != 0b111 {
		t.Fatalf("LaneMask(3) = %b", m)
	}
}

// TestNoiselessRoundsAreQuiet mirrors the scalar simulator's test: with zero
// noise every detector word stays zero across plain, SWAP-LRC and DQLR
// rounds, and the observable is unflipped in every lane of every sub-word.
func TestNoiselessRoundsAreQuiet(t *testing.T) {
	l := surfacecode.MustNew(5)
	plans := []circuit.Plan{
		{},
		{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]},
			{Data: 12, Stab: l.SwapPrimary[12]}}},
		{LRCs: []circuit.LRC{{Data: 7, Stab: l.SwapPrimary[7]}}, Protocol: circuit.ProtocolDQLR},
	}
	s, b := newWide(5, noiseless(), 1)
	for r := 1; r <= 8; r++ {
		events := s.RunRound(b.Round(plans[(r-1)%len(plans)]))
		for i, e := range events {
			if e != 0 {
				t.Fatalf("round %d: event word %b on stabilizer %d sub-word %d without noise",
					r, e, i/BlockWords, i%BlockWords)
			}
		}
	}
	det, obs := s.FinalRound(b.FinalMeasurement())
	for i, w := range det {
		if w != 0 {
			t.Fatalf("final detector %d sub-word %d fired without noise: %b", i/BlockWords, i%BlockWords, w)
		}
	}
	if obs != (Block{}) {
		t.Fatalf("observable flipped without noise: %x", obs)
	}
}

// TestInjectedXErrorFlipsZNeighborsPerLane injects X errors on different
// qubits in different lanes and sub-words and checks that exactly the right
// lanes of the right Z-stabilizer event words fire; a Z error fires only its
// X neighbours.
func TestInjectedXErrorFlipsZNeighborsPerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	s, b := newWide(3, noiseless(), 3)
	s.RunRound(b.Round(circuit.Plan{})) // settle round 1

	// X on data qubit 0 in sub-word 0 lane 0 and on the center qubit 4 in
	// sub-word 2 lane 5; both in sub-word 3 lane 63. Z on qubit 4 in
	// sub-word 1 lane 11.
	s.flipX(0, Block{1 << 0, 0, 0, 1 << 63})
	s.flipX(4, Block{0, 0, 1 << 5, 1 << 63})
	s.flipZ(4, Block{0, 1 << 11, 0, 0})
	events := s.RunRound(b.Round(circuit.Plan{}))
	for i := range l.Stabilizers {
		st := &l.Stabilizers[i]
		var want Block
		for _, q := range st.Data {
			switch {
			case st.Kind == surfacecode.KindZ && q == 0:
				want[0] ^= 1 << 0
				want[3] ^= 1 << 63
			case st.Kind == surfacecode.KindZ && q == 4:
				want[2] ^= 1 << 5
				want[3] ^= 1 << 63
			case st.Kind == surfacecode.KindX && q == 4:
				want[1] ^= 1 << 11
			}
		}
		if got := *blk(events, i); got != want {
			t.Errorf("stab %d events = %x, want %x", i, got, want)
		}
	}
}

// TestObservableFlipPerLane checks that a logical X chain in one lane flips
// only that lane's observable, in whichever sub-word it sits.
func TestObservableFlipPerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	s, b := newWide(3, noiseless(), 4)
	s.RunRound(b.Round(circuit.Plan{}))
	// Logical Z support is the top row; flip exactly one of its qubits in
	// sub-word 1 lane 9 and sub-word 3 lane 60 — a detectable error, but
	// also a flip of the final outcome bit.
	lanes := Block{0, 1 << 9, 0, 1 << 60}
	s.flipX(l.ZLogicalSupport[0], lanes)
	if _, obs := s.FinalRound(b.FinalMeasurement()); obs != lanes {
		t.Fatalf("observable words = %x, want %x", obs, lanes)
	}
}

// TestLRCClearsLeakagePerLane: a SWAP LRC on a leaked data qubit returns it
// to the computational basis in exactly the leaked lanes. Transport is
// disabled so the outcome is deterministic (with the paper's PTransport=0.1
// the parity qubit can pick the leak up and hand it straight back).
func TestLRCClearsLeakagePerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s, b := newWide(3, n, 5)
	lanes := Block{0xF0, 0, 0xF0 << 24, 1 << 63}
	s.forceLeak(0, lanes)
	if s.LeakedBlock(0) != lanes {
		t.Fatal("injection failed")
	}
	plan := circuit.Plan{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}}}
	s.RunRound(b.Round(plan))
	if got := s.LeakedBlock(0); got != (Block{}) {
		t.Fatalf("LRC left lanes leaked: %x", got)
	}
	// Without an LRC the leakage would have persisted (no seepage at p=0).
	s.Reset(unitRNGs(6))
	s.forceLeak(0, lanes)
	s.RunRound(b.Round(circuit.Plan{}))
	if got := s.LeakedBlock(0); got != lanes {
		t.Fatalf("plain round altered data leakage: %x", got)
	}
}

// TestDQLRClearsLeakagePerLane: the LeakageISWAP returns leaked data lanes
// to the computational basis.
func TestDQLRClearsLeakagePerLane(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s, b := newWide(3, n, 6)
	s.forceLeak(0, Block{0x5, 1 << 40, 0, 0x5 << 3})
	plan := circuit.Plan{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}},
		Protocol: circuit.ProtocolDQLR}
	s.RunRound(b.Round(plan))
	if got := s.LeakedBlock(0); got != (Block{}) {
		t.Fatalf("DQLR left lanes leaked: %x", got)
	}
}

// TestLeakedCountsActiveMask: counts respect the active lanes of a partial
// block, the mask the runner's LPR accounting passes.
func TestLeakedCountsActiveMask(t *testing.T) {
	l := surfacecode.MustNew(3)
	s, _ := newWide(3, noiseless(), 7)
	s.forceLeak(0, Block{0xFF, 0, 0xF << 60, 0})         // 12 lanes on data qubit 0
	s.forceLeak(l.NumData, Block{0b11 << 62, 0, 0, 0b1}) // 3 lanes on a parity qubit
	if d, p := s.LeakedCounts(fullBlock()); d != 12 || p != 3 {
		t.Fatalf("full counts = (%d, %d), want (12, 3)", d, p)
	}
	if d, p := s.LeakedCounts(BlockMask(4)); d != 4 || p != 0 {
		t.Fatalf("first-4-lanes counts = (%d, %d), want (4, 0)", d, p)
	}
	// Sub-word 0 capped at 4 lanes, sub-word 1 absent, sub-word 3 capped at
	// one lane.
	partial := Block{LaneMask(4), 0, AllLanes, LaneMask(1)}
	if d, p := s.LeakedCounts(partial); d != 8 || p != 1 {
		t.Fatalf("partial-block counts = (%d, %d), want (8, 1)", d, p)
	}
}

// TestLeakedLanesCarryNoFrames: the invariant behind the word-parallel gate
// implementations — leaked lanes always have zero frame bits — holds after
// static rounds, with and without LRCs, and masked rounds.
func TestLeakedLanesCarryNoFrames(t *testing.T) {
	l := surfacecode.MustNew(3)
	s, b := newWide(3, noise.Standard(0.05), 8)
	perLane := make([]circuit.Plan, BlockLanes)
	for i := range perLane {
		if q := i % 7; q < l.NumData {
			perLane[i] = circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
		}
	}
	for r := 1; r <= 12; r++ {
		switch {
		case r%3 == 0:
			s.RunRoundMasked(b.MaskedRound(perLane, fullBlock()))
		case r%2 == 0:
			s.RunRound(b.Round(circuit.Plan{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}}}))
		default:
			s.RunRound(b.Round(circuit.Plan{}))
		}
		for i, lk := range s.leaked {
			if s.x[i]&lk != 0 || s.z[i]&lk != 0 {
				t.Fatalf("round %d: qubit %d sub-word %d leaked lanes carry frames", r, i/BlockWords, i%BlockWords)
			}
		}
	}
}

// TestSamplerMatchesBernoulli: the skip-sampling mask generator produces
// per-lane set rates matching the target probability.
func TestSamplerMatchesBernoulli(t *testing.T) {
	rng := stats.NewRNG(9, 9)
	var m sampler
	for _, p := range []float64{1e-3, 0.02, 0.25} {
		m.reset(p, rng)
		const words = 40000
		set := 0
		for i := 0; i < words; i++ {
			set += bits.OnesCount64(m.next())
		}
		got := float64(set) / float64(words*Lanes)
		if got < 0.8*p || got > 1.2*p {
			t.Errorf("sampler rate %v for p=%v outside 20%%", got, p)
		}
	}
	// Extremes.
	m.reset(0, rng)
	if m.next() != 0 {
		t.Error("p=0 sampler set bits")
	}
	m.reset(1, rng)
	if m.next() != AllLanes {
		t.Error("p=1 sampler missed lanes")
	}
}

// refSampler is the skip sampler as it was before next was split into an
// inlinable countdown and an outlined fill, kept verbatim as the reference
// every stored tally was drawn with.
type refSampler struct {
	p    float64
	rng  *stats.RNG
	skip int
}

func (m *refSampler) reset(p float64, rng *stats.RNG) {
	m.p, m.rng = p, rng
	m.skip = 0
	if p > 0 && p < 1 {
		m.skip = rng.Geometric(p)
	}
}

func (m *refSampler) next() uint64 {
	if m.p <= 0 {
		return 0
	}
	if m.p >= 1 {
		return AllLanes
	}
	if m.skip >= Lanes {
		m.skip -= Lanes
		return 0
	}
	var mask uint64
	for m.skip < Lanes {
		mask |= 1 << uint(m.skip)
		m.skip += 1 + m.rng.Geometric(m.p)
	}
	m.skip -= Lanes
	return mask
}

// TestSamplerMatchesReference: the sampler emits the reference sampler's
// masks word for word from identically seeded streams and leaves its stream
// at the same position, so no random draw anywhere in the engines moved.
// TestSamplerMatchesBernoulli checks rates only and cannot see a shifted
// stream.
func TestSamplerMatchesReference(t *testing.T) {
	for _, p := range []float64{0, 1e-6, 1e-4, 1e-3, 0.05, 0.5, 1} {
		rRef, rGot := stats.NewRNG(3, 4), stats.NewRNG(3, 4)
		var ref refSampler
		var got sampler
		ref.reset(p, rRef)
		got.reset(p, rGot)
		for i := 0; i < 100000; i++ {
			if w, g := ref.next(), got.next(); w != g {
				t.Fatalf("p=%v word %d: mask %#x, want %#x", p, i, g, w)
			}
		}
		if w, g := rRef.Uint64(), rGot.Uint64(); w != g {
			t.Fatalf("p=%v: stream position differs after 1e5 words", p)
		}
	}
}

// TestCountdownMatchesSamplers: one rate class driven through its shared
// countdown — whole-block calls, the firings among them, and settles with
// per-sub-word calls before the re-arm — returns on every live sub-word the
// word that a reference sampler on an identically seeded stream returns
// when stepped with next on every call. Every stream ends at the same
// position, and absent sub-words are never touched.
func TestCountdownMatchesSamplers(t *testing.T) {
	for _, p := range []float64{0, 1e-6, 1e-4, 1e-3, 0.05, 0.5, 1} {
		for _, live := range []Block{
			{AllLanes, AllLanes, AllLanes, AllLanes},
			{AllLanes, 0, AllLanes, 0},
			{0, 0, 0, AllLanes},
		} {
			var got, ref [BlockWords]sampler
			var gotRNG, refRNG [BlockWords]*stats.RNG
			for w := 0; w < BlockWords; w++ {
				if live[w] != 0 {
					gotRNG[w], refRNG[w] = stats.NewRNG(3, uint64(w)), stats.NewRNG(3, uint64(w))
					got[w].reset(p, gotRNG[w])
					ref[w].reset(p, refRNG[w])
				}
			}
			check := func(i int, m Block) {
				t.Helper()
				for w := 0; w < BlockWords; w++ {
					var want uint64
					if live[w] != 0 {
						want = ref[w].next()
					}
					if m[w] != want {
						t.Fatalf("p=%v live=%x call %d sub-word %d: word %#x, want %#x", p, live, i, w, m[w], want)
					}
				}
			}
			var c countdown
			c.arm(&got, &live)
			script := stats.NewRNG(4, 0)
			for i := 0; i < 40000; i++ {
				if script.IntN(32) != 0 {
					var m Block
					if !c.quiet() {
						m = c.fire(&got, &live)
					}
					check(i, m)
					continue
				}
				// A per-sub-word op: settle, up to three calls on every live
				// sub-word's own sampler, re-arm.
				c.settle(&got, &live)
				for n := script.IntN(4); n > 0; n-- {
					var m Block
					for w := 0; w < BlockWords; w++ {
						if live[w] != 0 {
							m[w] = got[w].next()
						}
					}
					check(i, m)
				}
				c.arm(&got, &live)
			}
			c.settle(&got, &live)
			for w := 0; w < BlockWords; w++ {
				if live[w] == 0 {
					if got[w] != (sampler{}) {
						t.Fatalf("p=%v live=%x: absent sub-word %d sampler touched", p, live, w)
					}
					continue
				}
				if got[w].skip != ref[w].skip {
					t.Fatalf("p=%v live=%x sub-word %d: settled skip %d, want %d", p, live, w, got[w].skip, ref[w].skip)
				}
				if gotRNG[w].Uint64() != refRNG[w].Uint64() {
					t.Fatalf("p=%v live=%x sub-word %d: stream position differs", p, live, w)
				}
			}
		}
	}
}

// TestMaskedLRCTouchesOnlyMaskedLanes: the heart of the lane-masked engine —
// an LRC masked to a subset of lanes removes leakage exactly there, while
// unmasked lanes (whose plan had no LRC) keep their leakage.
func TestMaskedLRCTouchesOnlyMaskedLanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s, b := newWide(3, n, 11)

	const q = 0
	lrcLanes := Block{0b0101, 0, 0b0101 << 30, 1 << 63}       // plan an LRC on q
	leakLanes := Block{0b0110, 1 << 7, 0b0110 << 30, 1 << 63} // q starts leaked
	s.forceLeak(q, leakLanes)
	plan := circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
	s.RunRoundMasked(b.MaskedRound(plansOn(lrcLanes, plan), fullBlock()))

	// Leaked, LRC'd lanes are cleaned; leaked lanes without an LRC stay
	// leaked; every other lane stays unleaked.
	if got, want := s.LeakedBlock(q), (Block{0b0010, 1 << 7, 0b0010 << 30, 0}); got != want {
		t.Fatalf("leaked block %x after masked round, want %x", got, want)
	}
}

// TestMaskedFrameIsolation: an LRC measures and resets the data qubit
// mid-round, but the SWAP protocol holds the data state on the parity qubit
// and returns it afterwards — so the X frame must survive on the LRC'd lanes
// (state-preserving leakage removal, as in the scalar engine) and, crucially,
// on the lanes whose plan never touched the qubit, with no frame bit landing
// anywhere else.
func TestMaskedFrameIsolation(t *testing.T) {
	l := surfacecode.MustNew(3)
	s, b := newWide(3, noiseless(), 12)
	s.RunRound(b.Round(circuit.Plan{})) // settle round 1

	const q = 4 // center data qubit
	frames := Block{1<<3 | 1<<7, 0, 1<<3 | 1<<7, 0}
	lrcLanes := Block{1 << 3, 0, 1 << 7, 1 << 3}
	s.flipX(q, frames)
	plan := circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
	s.RunRoundMasked(b.MaskedRound(plansOn(lrcLanes, plan), fullBlock()))

	if got := *blk(s.x, q); got != frames {
		t.Fatalf("X frames of qubit %d = %x after LRCs on %x, want %x", q, got, lrcLanes, frames)
	}
}

// TestMLClassificationPlanes: with TrackML, a leaked measured wire is
// classified |L> in exactly its leaked lanes (error-free discriminator),
// and the data-wire planes are populated only for LRC'd stabilizers.
func TestMLClassificationPlanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	n := noiseless()
	n.PTransport = 0
	s := NewWide(l, n, surfacecode.KindZ)
	s.TrackML = true
	s.Reset(unitRNGs(13))
	b := circuit.NewBuilder(l)

	// Leak a parity qubit on three lanes; its measurement this round must
	// classify |L> exactly there.
	stab := 0
	ancLanes := Block{1<<0 | 1<<5, 0, 0, 1 << 62}
	s.forceLeak(l.Stabilizers[stab].Ancilla, ancLanes)
	s.RunRound(b.Round(circuit.Plan{}))
	for i := range l.Stabilizers {
		var want Block
		if i == stab {
			want = ancLanes
		}
		if got := *blk(s.MLParityLeak(), i); got != want {
			t.Fatalf("MLParityLeak of stabilizer %d = %x, want %x", i, got, want)
		}
	}

	// An LRC on a leaked data qubit: the data-wire plane flags |L> on the
	// LRC'd lanes, driving the ERASER+M conditional swap-back.
	const q = 0
	lanes := Block{1 << 2, 1 << 40, 0, 0}
	s.forceLeak(q, lanes)
	plan := circuit.Plan{
		LRCs:       []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}},
		CondReturn: true,
	}
	s.RunRoundMasked(b.MaskedRound(plansOn(lanes, plan), fullBlock()))
	if got := *blk(s.mlDataLeak, l.SwapPrimary[q]); got != lanes {
		t.Fatalf("data-wire ML leak = %x, want %x", got, lanes)
	}
	if got := s.LeakedBlock(q); got != (Block{}) {
		t.Fatalf("conditional-return LRC left leakage: %x", got)
	}
}

// TestCondReturnRequiresTrackML: executing the ERASER+M conditional
// swap-back without the ML planes is a harness bug and must panic.
func TestCondReturnRequiresTrackML(t *testing.T) {
	l := surfacecode.MustNew(3)
	s, b := newWide(3, noiseless(), 14)
	plan := circuit.Plan{
		LRCs:       []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}},
		CondReturn: true,
	}
	ops := b.MaskedRound(plansOn(Block{0, 0, 1 << 17, 0}, plan), fullBlock())
	defer func() {
		if recover() == nil {
			t.Fatal("OpCondReturn without TrackML did not panic")
		}
	}()
	s.RunRoundMasked(ops)
}

// TestMLPlanesOnlyUnderTrackML: a simulator without TrackML never
// allocates the multi-level planes, and the first Reset with it set
// allocates them zeroed, one word per stabilizer and sub-word.
func TestMLPlanesOnlyUnderTrackML(t *testing.T) {
	l := surfacecode.MustNew(3)
	s := NewWide(l, noiseless(), surfacecode.KindZ)
	s.Reset(unitRNGs(15))
	s.RunRound(circuit.NewBuilder(l).Round(circuit.Plan{}))
	if s.MLParityLeak() != nil || s.MLParityVal() != nil || s.mlDataLeak != nil {
		t.Fatal("ML planes allocated without TrackML")
	}
	s.TrackML = true
	s.Reset(unitRNGs(16))
	for _, p := range [][]uint64{s.MLParityLeak(), s.MLParityVal(), s.mlDataLeak} {
		if len(p) != l.NumParity*BlockWords || slices.ContainsFunc(p, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("ML plane after a TrackML Reset: len %d, want %d zero words", len(p), l.NumParity*BlockWords)
		}
	}
}

// TestMaskedNoiselessRoundsAreQuiet: masked rounds with heterogeneous
// per-lane plans stay silent without noise, and the observable stays
// unflipped in every lane.
func TestMaskedNoiselessRoundsAreQuiet(t *testing.T) {
	l := surfacecode.MustNew(5)
	n := noiseless()
	n.PTransport = 0
	s, b := newWide(5, n, 15)
	plans := make([]circuit.Plan, BlockLanes)
	for r := 1; r <= 6; r++ {
		for i := range plans {
			plans[i] = circuit.Plan{}
			if q := (r + i) % l.NumData; i%3 == 0 {
				plans[i] = circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
			}
		}
		events := s.RunRoundMasked(b.MaskedRound(plans, fullBlock()))
		for i, e := range events {
			if e != 0 {
				t.Fatalf("round %d: masked event word %b on stabilizer %d sub-word %d without noise",
					r, e, i/BlockWords, i%BlockWords)
			}
		}
	}
	if _, obs := s.FinalRound(b.FinalMeasurement()); obs != (Block{}) {
		t.Fatalf("observable flipped without noise: %x", obs)
	}
}

// TestBatchRNGDeterminism: same seed, same trajectory; different seeds
// diverge.
func TestBatchRNGDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		s, b := newWide(3, noise.Standard(5e-3), seed)
		var all []uint64
		for r := 1; r <= 6; r++ {
			all = append(all, s.RunRound(b.Round(circuit.Plan{}))...)
		}
		return all
	}
	a, b2 := run(1), run(1)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := run(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}
