package decoder

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// runUF mirrors runWithErrors but decodes with the union-find engine.
func runUF(t *testing.T, d, rounds int, errs map[int]int) (uint8, uint8) {
	t.Helper()
	l := surfacecode.MustNew(d)
	dec := NewUnionFind(l, surfacecode.KindZ, rounds)
	s := sim.New(l, noise.Standard(0), stats.NewRNG(1, 1))
	b := circuit.NewBuilder(l)
	var events []Event
	for r := 1; r <= rounds; r++ {
		for q, br := range errs {
			if br == r {
				s.InjectX(q)
			}
		}
		res := s.RunRound(b.Round(circuit.Plan{}))
		for i := range l.Stabilizers {
			if res.Events[i] != 0 && l.Stabilizers[i].Kind == surfacecode.KindZ {
				events = append(events, Event{Z: l.ZOrdinal(i), Round: r})
			}
		}
	}
	final := s.FinalMeasure(b.FinalMeasurement())
	for i, e := range s.FinalDetectors(final) {
		if e != 0 {
			events = append(events, Event{Z: l.ZOrdinal(i), Round: rounds + 1})
		}
	}
	return dec.Decode(events), s.ObservableFlip(final)
}

func TestUnionFindNoEvents(t *testing.T) {
	l := surfacecode.MustNew(3)
	dec := NewUnionFind(l, surfacecode.KindZ, 3)
	if dec.Decode(nil) != 0 {
		t.Fatal("empty decode predicted a flip")
	}
}

// TestUnionFindSingleErrors: every single X error decodes correctly.
func TestUnionFindSingleErrors(t *testing.T) {
	for _, d := range []int{3, 5} {
		l := surfacecode.MustNew(d)
		for q := 0; q < l.NumData; q++ {
			for _, r := range []int{1, 2, d} {
				pred, actual := runUF(t, d, d, map[int]int{q: r})
				if pred != actual {
					t.Fatalf("d=%d: single X on %d before round %d misdecoded", d, q, r)
				}
			}
		}
	}
}

// TestUnionFindPairsD5: union-find corrects well-separated pairs; pairs at
// distance <= 2 may confuse cluster growth, so restrict to separated ones
// (MWPM covers the exhaustive case).
func TestUnionFindPairsD5(t *testing.T) {
	const d = 5
	l := surfacecode.MustNew(d)
	for q1 := 0; q1 < l.NumData; q1++ {
		for q2 := q1 + 1; q2 < l.NumData; q2++ {
			dr := l.DataRow[q1] - l.DataRow[q2]
			dc := l.DataCol[q1] - l.DataCol[q2]
			if dr*dr+dc*dc < 9 {
				continue // only well-separated pairs
			}
			pred, actual := runUF(t, d, d, map[int]int{q1: 2, q2: 2})
			if pred != actual {
				t.Fatalf("pair (%d,%d) misdecoded by union-find", q1, q2)
			}
		}
	}
}

// TestUnionFindMeasurementError: a time-pair of events is matched internally
// with no logical flip.
func TestUnionFindMeasurementError(t *testing.T) {
	l := surfacecode.MustNew(3)
	dec := NewUnionFind(l, surfacecode.KindZ, 5)
	// Same Z ordinal in consecutive rounds: classic measurement error.
	if flip := dec.Decode([]Event{{Z: 1, Round: 2}, {Z: 1, Round: 3}}); flip != 0 {
		t.Fatalf("time pair decoded with flip %d", flip)
	}
}

// TestUnionFindAgreesWithMWPMOnNoise: on noisy shots the two engines must
// agree on the great majority of decodes (they differ only on ambiguous
// configurations).
func TestUnionFindAgreesWithMWPMOnNoise(t *testing.T) {
	const d, rounds, shots = 5, 15, 150
	l := surfacecode.MustNew(d)
	mwpm := New(l, Config{})
	uf := NewUnionFind(l, surfacecode.KindZ, rounds)
	b := circuit.NewBuilder(l)
	rng := stats.NewRNG(42, 0)
	agree, disagree := 0, 0
	ufCorrect, mwpmCorrect := 0, 0
	for shot := 0; shot < shots; shot++ {
		s := sim.New(l, noise.Standard(1e-3), rng.Split(uint64(shot)))
		var events []Event
		for r := 1; r <= rounds; r++ {
			res := s.RunRound(b.Round(circuit.Plan{}))
			for i := range l.Stabilizers {
				if res.Events[i] != 0 && l.Stabilizers[i].Kind == surfacecode.KindZ {
					events = append(events, Event{Z: l.ZOrdinal(i), Round: r})
				}
			}
		}
		final := s.FinalMeasure(b.FinalMeasurement())
		for i, e := range s.FinalDetectors(final) {
			if e != 0 {
				events = append(events, Event{Z: l.ZOrdinal(i), Round: rounds + 1})
			}
		}
		actual := s.ObservableFlip(final)
		pm := mwpm.Decode(events)
		pu := uf.Decode(events)
		if pm == pu {
			agree++
		} else {
			disagree++
		}
		if pm == actual {
			mwpmCorrect++
		}
		if pu == actual {
			ufCorrect++
		}
	}
	t.Logf("agree=%d disagree=%d mwpmCorrect=%d ufCorrect=%d", agree, disagree, mwpmCorrect, ufCorrect)
	if agree < shots*8/10 {
		t.Fatalf("engines agree on only %d/%d shots", agree, shots)
	}
	// Union-find accuracy must be in MWPM's ballpark.
	if ufCorrect < mwpmCorrect-shots/10 {
		t.Fatalf("union-find accuracy %d far below MWPM %d", ufCorrect, mwpmCorrect)
	}
}

func TestUnionFindMemoryX(t *testing.T) {
	const d, rounds = 3, 6
	l := surfacecode.MustNew(d)
	dec := NewUnionFind(l, surfacecode.KindX, rounds)
	s := sim.NewMemory(l, noise.Standard(0), stats.NewRNG(3, 3), surfacecode.KindX)
	b := circuit.NewBuilder(l)
	var events []Event
	for r := 1; r <= rounds; r++ {
		if r == 2 {
			s.InjectZ(l.DataID(1, 1)) // center
		}
		res := s.RunRound(b.Round(circuit.Plan{}))
		for i := range l.Stabilizers {
			if res.Events[i] != 0 && l.Stabilizers[i].Kind == surfacecode.KindX {
				events = append(events, Event{Z: l.XOrdinal(i), Round: r})
			}
		}
	}
	final := s.FinalMeasure(b.FinalMeasurement())
	for i, e := range s.FinalDetectors(final) {
		if e != 0 {
			events = append(events, Event{Z: l.XOrdinal(i), Round: rounds + 1})
		}
	}
	if pred, actual := dec.Decode(events), s.ObservableFlip(final); pred != actual {
		t.Fatalf("memory-X single Z error misdecoded: pred %d actual %d", pred, actual)
	}
}
