package decoder

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// bases are the two memory experiments: memory-Z decodes the Z detectors,
// memory-X the X detectors.
var bases = []surfacecode.Kind{surfacecode.KindZ, surfacecode.KindX}

// runWithErrors executes a noiseless memory experiment in the given basis,
// injecting the given data-qubit errors (qubit, beforeRound) — X errors on
// memory-Z, Z errors on memory-X, the ones its detectors see — and returns
// (decoderPrediction, actualFlip).
func runWithErrors(t *testing.T, basis surfacecode.Kind, d, rounds int, errs map[int]int) (uint8, uint8) {
	t.Helper()
	l := surfacecode.MustNew(d)
	dec := NewForKind(l, Config{}, basis)
	s := sim.NewMemory(l, noise.Standard(0), stats.NewRNG(1, 1), basis)
	inject := s.InjectX
	if basis == surfacecode.KindX {
		inject = s.InjectZ
	}
	b := circuit.NewBuilder(l)
	var events []Event
	for r := 1; r <= rounds; r++ {
		for q, br := range errs {
			if br == r {
				inject(q)
			}
		}
		res := s.RunRound(b.Round(circuit.Plan{}))
		for i := range l.Stabilizers {
			if res.Events[i] != 0 && l.Stabilizers[i].Kind == basis {
				events = append(events, Event{Z: l.KindOrdinal(basis, i), Round: r})
			}
		}
	}
	final := s.FinalMeasure(b.FinalMeasurement())
	for i, e := range s.FinalDetectors(final) {
		if e != 0 {
			events = append(events, Event{Z: l.KindOrdinal(basis, i), Round: rounds + 1})
		}
	}
	return dec.Decode(events), s.ObservableFlip(final)
}

// TestDecodeNoEvents: shots that need no correction decode to no flip in
// either basis — the empty shot, and a measurement error (one detector's
// events in two consecutive rounds) on every detector.
func TestDecodeNoEvents(t *testing.T) {
	l := surfacecode.MustNew(3)
	for _, basis := range bases {
		dec := NewForKind(l, Config{}, basis)
		if dec.Decode(nil) != 0 {
			t.Fatalf("memory-%s: empty decode predicted a flip", basis)
		}
		for z := 0; z < l.NumKind(basis); z++ {
			if flip := dec.Decode([]Event{{Z: z, Round: 2}, {Z: z, Round: 3}}); flip != 0 {
				t.Fatalf("memory-%s: time pair on detector %d decoded with flip %d", basis, z, flip)
			}
		}
	}
}

// TestSingleErrorsCorrected: every single data-qubit error, injected before
// the first, second or last round, must decode without a logical error at
// d=3, 5 and 7, for X errors on memory-Z and Z errors on memory-X.
func TestSingleErrorsCorrected(t *testing.T) {
	for _, basis := range bases {
		for _, d := range []int{3, 5, 7} {
			l := surfacecode.MustNew(d)
			for q := 0; q < l.NumData; q++ {
				for _, r := range []int{1, 2, d} {
					pred, actual := runWithErrors(t, basis, d, d, map[int]int{q: r})
					if pred != actual {
						t.Fatalf("memory-%s d=%d: single error on %d before round %d misdecoded (pred %d, actual %d)",
							basis, d, q, r, pred, actual)
					}
				}
			}
		}
	}
}

// TestPairErrorsCorrectedD5: distance 5 corrects any two X errors; check
// every pair injected in the same round and a sample across rounds.
func TestPairErrorsCorrectedD5(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const d = 5
	l := surfacecode.MustNew(d)
	for q1 := 0; q1 < l.NumData; q1++ {
		for q2 := q1 + 1; q2 < l.NumData; q2++ {
			pred, actual := runWithErrors(t, surfacecode.KindZ, d, d, map[int]int{q1: 2, q2: 2})
			if pred != actual {
				t.Fatalf("pair (%d,%d) misdecoded", q1, q2)
			}
		}
	}
	// Cross-round pairs (q1 early, q2 late).
	for q1 := 0; q1 < l.NumData; q1 += 3 {
		for q2 := 1; q2 < l.NumData; q2 += 4 {
			if q1 == q2 {
				continue
			}
			pred, actual := runWithErrors(t, surfacecode.KindZ, d, d, map[int]int{q1: 1, q2: 4})
			if pred != actual {
				t.Fatalf("cross-round pair (%d,%d) misdecoded", q1, q2)
			}
		}
	}
}

// TestLogicalChainFailsSilently: a full vertical X chain is a logical
// operator — no detection events fire, the observable flips, and the decoder
// (correctly, per the code's guarantees) cannot see it.
func TestLogicalChainFailsSilently(t *testing.T) {
	const d = 3
	l := surfacecode.MustNew(d)
	errs := map[int]int{}
	col := 1
	for row := 0; row < d; row++ {
		errs[l.DataID(row, col)] = 2
	}
	s := sim.New(l, noise.Standard(0), stats.NewRNG(2, 2))
	b := circuit.NewBuilder(l)
	var nEvents int
	for r := 1; r <= d; r++ {
		for q, br := range errs {
			if br == r {
				s.InjectX(q)
			}
		}
		res := s.RunRound(b.Round(circuit.Plan{}))
		for i := range l.Stabilizers {
			if res.Events[i] != 0 {
				nEvents++
			}
		}
	}
	if nEvents != 0 {
		t.Fatalf("logical chain fired %d detectors, want 0", nEvents)
	}
	final := s.FinalMeasure(b.FinalMeasurement())
	if s.ObservableFlip(final) != 1 {
		t.Fatal("logical chain did not flip the observable")
	}
}

// TestSpaceDistances: adjacent Z stabilizers (sharing a data qubit) are at
// distance 1; boundary distances are shortest row-paths.
func TestSpaceDistances(t *testing.T) {
	l := surfacecode.MustNew(5)
	dec := New(l, Config{})
	for q := 0; q < l.NumData; q++ {
		zs := l.DataZStabs[q]
		if len(zs) == 2 {
			a, b := l.ZOrdinal(zs[0]), l.ZOrdinal(zs[1])
			if got := dec.SpaceDistance(a, b); got != 1 {
				t.Fatalf("adjacent Z stabilizers at distance %v", got)
			}
		}
	}
	// Every Z stabilizer can reach the boundary within (d+1)/2 steps.
	for i := range l.Stabilizers {
		if l.Stabilizers[i].Kind != surfacecode.KindZ {
			continue
		}
		bd := dec.BoundaryDistance(l.ZOrdinal(i))
		if bd < 1 || bd > float64((l.Distance+1)/2) {
			t.Fatalf("boundary distance %v out of range for stabilizer %d", bd, i)
		}
	}
}

// TestCrossingParityTopVsBottom: a top-row data qubit's boundary edge
// crosses the logical support; a bottom-row one does not. Verify through
// decoding: a single X on the top row must be predicted as a flip when
// matched to the boundary.
func TestCrossingParityTopVsBottom(t *testing.T) {
	const d = 5
	l := surfacecode.MustNew(d)
	top := l.DataID(0, 2)
	bottom := l.DataID(d-1, 2)
	predT, actualT := runWithErrors(t, surfacecode.KindZ, d, 3, map[int]int{top: 2})
	if predT != 1 || actualT != 1 {
		t.Fatalf("top-row error: pred %d actual %d, want 1 1", predT, actualT)
	}
	predB, actualB := runWithErrors(t, surfacecode.KindZ, d, 3, map[int]int{bottom: 2})
	if predB != 0 || actualB != 0 {
		t.Fatalf("bottom-row error: pred %d actual %d, want 0 0", predB, actualB)
	}
}

// TestHalfDistanceErrorsCorrected: floor((d-1)/2) errors in one column are
// always correctable.
func TestHalfDistanceErrorsCorrected(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		l := surfacecode.MustNew(d)
		errs := map[int]int{}
		for k := 0; k < (d-1)/2; k++ {
			errs[l.DataID(k, 0)] = 2
		}
		pred, actual := runWithErrors(t, surfacecode.KindZ, d, d, errs)
		if pred != actual {
			t.Fatalf("d=%d: %d-error chain misdecoded", d, (d-1)/2)
		}
	}
}

// TestMonteCarloBelowHalfDistance: random sets of floor((d-1)/2) X errors
// must always decode correctly (they can never complete a logical chain).
func TestMonteCarloBelowHalfDistance(t *testing.T) {
	const d = 7
	l := surfacecode.MustNew(d)
	rng := stats.NewRNG(77, 0)
	for trial := 0; trial < 60; trial++ {
		errs := map[int]int{}
		for len(errs) < (d-1)/2 {
			errs[rng.IntN(l.NumData)] = 1 + rng.IntN(d)
		}
		pred, actual := runWithErrors(t, surfacecode.KindZ, d, d, errs)
		if pred != actual {
			t.Fatalf("trial %d: %v misdecoded", trial, errs)
		}
	}
}
