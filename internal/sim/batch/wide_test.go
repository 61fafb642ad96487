package batch

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// compareWideNarrow runs one wide block and BlockWords independent narrow
// units on identical per-unit RNG streams and asserts bit-identical state
// after every round: detection events, leakage planes, ML planes, final
// detectors and observable flips. planFor assigns each (round, global lane)
// its plan; masked selects RunRoundMasked vs the static RunRound path (the
// latter requires planFor to ignore the lane). The absent sub-words get a
// nil RNG and no lanes: they have no narrow counterpart, and their frame,
// leakage, event, ML and final words must stay zero throughout.
func compareWideNarrow(t *testing.T, d int, n noise.Params, rates *device.Rates,
	trackML, masked bool, rounds int, active Block, absent []int, planFor func(r, lane int) circuit.Plan) {
	t.Helper()
	compareWideNarrowRounds(t, d, n, rates, trackML, func(int) bool { return masked },
		rounds, active, absent, planFor)
}

// compareWideNarrowRounds is compareWideNarrow with the path chosen per
// round: round r runs through RunRoundMasked if maskedRound(r), else
// through RunRound.
func compareWideNarrowRounds(t *testing.T, d int, n noise.Params, rates *device.Rates,
	trackML bool, maskedRound func(r int) bool, rounds int, active Block, absent []int,
	planFor func(r, lane int) circuit.Plan) {
	t.Helper()
	l := surfacecode.MustNew(d)

	ws := NewWide(l, n, surfacecode.KindZ)
	ws.TrackML = trackML
	ws.UseRates(rates)
	// A throwaway full block first: Reset must clear all of its state, and
	// an absent sub-word must not draw from its stale streams.
	var warm [BlockWords]*stats.RNG
	for w := range warm {
		warm[w] = stats.NewRNG(7, uint64(w))
	}
	ws.Reset(warm)
	ws.RunRound(circuit.NewBuilder(l).Round(circuit.Plan{}))
	var rngs [BlockWords]*stats.RNG
	ns := make([]*Simulator, BlockWords) // nil on absent sub-words
	for w := 0; w < BlockWords; w++ {
		if slices.Contains(absent, w) {
			active[w] = 0
			continue
		}
		rngs[w] = stats.NewRNG(1000+uint64(w), uint64(w))
		ns[w] = New(l, n, surfacecode.KindZ)
		ns[w].TrackML = trackML
		ns[w].UseRates(rates)
		ns[w].Reset(stats.NewRNG(1000+uint64(w), uint64(w)))
	}
	ws.Reset(rngs)

	wb := circuit.NewBuilder(l)
	nb := circuit.NewBuilder(l)
	widePlans := make([]circuit.Plan, BlockLanes)
	narrowPlans := make([]circuit.Plan, Lanes)

	for r := 1; r <= rounds; r++ {
		var evW []uint64
		evN := make([][]uint64, BlockWords)
		if maskedRound(r) {
			for i := range widePlans {
				widePlans[i] = planFor(r, i)
			}
			evW = ws.RunRoundMasked(wb.MaskedRound(widePlans, active))
			for w := 0; w < BlockWords; w++ {
				if ns[w] == nil {
					continue
				}
				for i := range narrowPlans {
					narrowPlans[i] = planFor(r, w*Lanes+i)
				}
				ev := ns[w].RunRoundMasked(nb.MaskedRound(narrowPlans, circuit.LaneMask{active[w]}))
				evN[w] = append([]uint64(nil), ev...)
			}
		} else {
			plan := planFor(r, 0)
			evW = ws.RunRound(wb.Round(plan))
			for w := 0; w < BlockWords; w++ {
				if ns[w] == nil {
					continue
				}
				ev := ns[w].RunRound(nb.Round(plan))
				evN[w] = append([]uint64(nil), ev...)
			}
		}
		for i := range l.Stabilizers {
			for w := 0; w < BlockWords; w++ {
				j := i*BlockWords + w
				if ns[w] == nil {
					if evW[j]|ws.MLParityLeak()[j]|ws.MLParityVal()[j] != 0 {
						t.Fatalf("round %d absent sub-word %d stab %d: event or ML words set", r, w, i)
					}
					continue
				}
				if evW[i*BlockWords+w] != evN[w][i] {
					t.Fatalf("round %d sub-word %d stab %d: wide events %b, narrow %b",
						r, w, i, evW[i*BlockWords+w], evN[w][i])
				}
				if trackML {
					if ws.MLParityLeak()[i*BlockWords+w] != ns[w].MLParityLeak()[i] {
						t.Fatalf("round %d sub-word %d stab %d: ML leak planes differ", r, w, i)
					}
					if ws.MLParityVal()[i*BlockWords+w] != ns[w].MLParityVal()[i] {
						t.Fatalf("round %d sub-word %d stab %d: ML value planes differ", r, w, i)
					}
				}
			}
		}
		for q := 0; q < l.NumQubits; q++ {
			lk := ws.LeakedBlock(q)
			for w := 0; w < BlockWords; w++ {
				if ns[w] == nil {
					if j := q*BlockWords + w; lk[w]|ws.x[j]|ws.z[j] != 0 {
						t.Fatalf("round %d absent sub-word %d qubit %d: frame or leakage set", r, w, q)
					}
					continue
				}
				if lk[w] != ns[w].LeakedWord(q) {
					t.Fatalf("round %d sub-word %d qubit %d: wide leaked %b, narrow %b",
						r, w, q, lk[w], ns[w].LeakedWord(q))
				}
			}
		}
	}

	fdetW, obsW := ws.FinalRound(wb.FinalMeasurement())
	for w := 0; w < BlockWords; w++ {
		if ns[w] == nil {
			for i := range l.Stabilizers {
				if fdetW[i*BlockWords+w] != 0 {
					t.Fatalf("absent sub-word %d final detector %d set", w, i)
				}
			}
			if obsW[w] != 0 {
				t.Fatalf("absent sub-word %d observable set", w)
			}
			continue
		}
		fdetN, obsN := ns[w].FinalRound(nb.FinalMeasurement())
		for i := range l.Stabilizers {
			if fdetW[i*BlockWords+w] != fdetN[i] {
				t.Fatalf("sub-word %d final detector %d: wide %b, narrow %b",
					w, i, fdetW[i*BlockWords+w], fdetN[i])
			}
		}
		if obsW[w] != obsN {
			t.Fatalf("sub-word %d observable: wide %b, narrow %b", w, obsW[w], obsN)
		}
	}
}

func fullBlock() Block { return Block{AllLanes, AllLanes, AllLanes, AllLanes} }

// TestWideMatchesNarrowStatic: the wide engine's unmasked round path is
// bit-exact with 4 serial narrow units across plain, SWAP-LRC and DQLR
// rounds under the uniform ERASER noise model.
func TestWideMatchesNarrowStatic(t *testing.T) {
	l := surfacecode.MustNew(5)
	plans := []circuit.Plan{
		{},
		{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]},
			{Data: 12, Stab: l.SwapPrimary[12]}}},
		{LRCs: []circuit.LRC{{Data: 7, Stab: l.SwapPrimary[7]}}, Protocol: circuit.ProtocolDQLR},
	}
	compareWideNarrow(t, 5, noise.Standard(4e-3), nil, false, false, 9, fullBlock(), nil,
		func(r, _ int) circuit.Plan { return plans[(r-1)%len(plans)] })
}

// TestWideMatchesNarrowMasked: the masked path with per-lane plans spread
// across all four sub-words, including the ERASER+M conditional return
// (TrackML), stays bit-exact with the narrow engine.
func TestWideMatchesNarrowMasked(t *testing.T) {
	l := surfacecode.MustNew(5)
	compareWideNarrow(t, 5, noise.Standard(4e-3), nil, true, true, 9, fullBlock(), nil,
		func(r, lane int) circuit.Plan {
			if (lane+r)%3 != 0 {
				return circuit.Plan{}
			}
			q := (lane*7 + r) % l.NumData
			return circuit.Plan{
				LRCs:       []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}},
				CondReturn: true,
			}
		})
}

// TestWideMatchesNarrowProfile: heterogeneous rate-class tables (hotspot and
// drift profiles) keep per-sub-word streams bit-exact — the tables are
// shared across the block but every sub-word samples its own streams.
func TestWideMatchesNarrowProfile(t *testing.T) {
	l := surfacecode.MustNew(5)
	for _, tc := range []struct {
		name    string
		profile func() (*device.Profile, error)
	}{
		{"hotspot", func() (*device.Profile, error) { return device.Hotspot(5, 3e-3, 3, 8) }},
		{"drift", func() (*device.Profile, error) { return device.Drift(5, 3e-3, 0.4, 99) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.profile()
			if err != nil {
				t.Fatal(err)
			}
			rates, err := p.Resolve(l)
			if err != nil {
				t.Fatal(err)
			}
			compareWideNarrow(t, 5, p.Base, rates, false, true, 7, fullBlock(), nil,
				func(r, lane int) circuit.Plan {
					if (lane+r)%4 != 0 {
						return circuit.Plan{}
					}
					q := (lane*5 + r) % l.NumData
					return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
				})
		})
	}
}

// TestWideMatchesNarrowPartialMask: inactive lanes in any sub-word (partial
// shot caps) behave identically in both engines.
func TestWideMatchesNarrowPartialMask(t *testing.T) {
	l := surfacecode.MustNew(3)
	active := Block{AllLanes, LaneMask(17), 0, LaneMask(63)}
	compareWideNarrow(t, 3, noise.Standard(5e-3), nil, false, true, 6, active, nil,
		func(r, lane int) circuit.Plan {
			if (lane+r)%5 != 0 {
				return circuit.Plan{}
			}
			q := (lane + r) % l.NumData
			return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}}
		})
}

// TestWideMatchesNarrowAbsentSubWords: a block whose sub-words 1 and 3 are
// absent (nil RNG, as at a range edge) keeps sub-words 0 and 2 bit-exact with
// their narrow units on the static and the masked path, and leaves the absent
// ones untouched. Leakage rates are raised so leaked-operand handling, which
// draws per lane, runs in every round.
func TestWideMatchesNarrowAbsentSubWords(t *testing.T) {
	l := surfacecode.MustNew(5)
	n := noise.Standard(4e-3)
	n.PLeak *= 10
	absent := []int{1, 3}
	t.Run("static", func(t *testing.T) {
		plans := []circuit.Plan{
			{LRCs: []circuit.LRC{{Data: 3, Stab: l.SwapPrimary[3]}}},
			{LRCs: []circuit.LRC{{Data: 9, Stab: l.SwapPrimary[9]}}, Protocol: circuit.ProtocolDQLR},
		}
		compareWideNarrow(t, 5, n, nil, false, false, 8, fullBlock(), absent,
			func(r, _ int) circuit.Plan { return plans[r%len(plans)] })
	})
	t.Run("masked", func(t *testing.T) {
		active := Block{LaneMask(40), AllLanes, AllLanes, AllLanes}
		compareWideNarrow(t, 5, n, nil, true, true, 8, active, absent,
			func(r, lane int) circuit.Plan {
				if (lane+r)%3 != 0 {
					return circuit.Plan{}
				}
				q := (lane*7 + r) % l.NumData
				return circuit.Plan{
					LRCs:       []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}},
					CondReturn: true,
				}
			})
	})
}

// TestWideMatchesNarrowProfileStatic: static rounds under heterogeneous
// profiles, where every qubit and coupler can have its own shared
// countdown, stay bit-exact with the narrow engine. The rounds cycle
// through a plain round, two SWAP LRCs and two DQLR LRCs, whose
// LeakageISWAPs step their classes per sub-word between a settle and a
// re-arm; TrackML adds the per-qubit ML classes. Leakage is raised so
// leaked operands occur in every round, and absent sub-words vary.
func TestWideMatchesNarrowProfileStatic(t *testing.T) {
	l := surfacecode.MustNew(5)
	plans := []circuit.Plan{
		{},
		{LRCs: []circuit.LRC{{Data: 3, Stab: l.SwapPrimary[3]}, {Data: 16, Stab: l.SwapPrimary[16]}}},
		{LRCs: []circuit.LRC{{Data: 9, Stab: l.SwapPrimary[9]}, {Data: 20, Stab: l.SwapPrimary[20]}},
			Protocol: circuit.ProtocolDQLR},
	}
	for _, tc := range []struct {
		name    string
		profile func() (*device.Profile, error)
	}{
		{"hotspot", func() (*device.Profile, error) { return device.Hotspot(5, 3e-3, 3, 8) }},
		{"drift", func() (*device.Profile, error) { return device.Drift(5, 3e-3, 0.4, 99) }},
	} {
		p, err := tc.profile()
		if err != nil {
			t.Fatal(err)
		}
		for q := range p.PLeak {
			p.PLeak[q] *= 10
		}
		rates, err := p.Resolve(l)
		if err != nil {
			t.Fatal(err)
		}
		for _, absent := range [][]int{nil, {1, 3}, {0}} {
			t.Run(fmt.Sprintf("%s/absent=%v", tc.name, absent), func(t *testing.T) {
				compareWideNarrow(t, 5, p.Base, rates, true, false, 9, fullBlock(), absent,
					func(r, _ int) circuit.Plan { return plans[(r-1)%len(plans)] })
			})
		}
	}
}

// TestWideMatchesNarrowMixedRounds: a block that switches between static
// and masked rounds hands its samplers between the shared countdowns and
// the per-sub-word gates without moving a draw: RunRoundMasked and
// FinalMeasure settle what RunRound armed. Its static rounds carry ERASER+M
// conditional returns, which run per sub-word inside a static round, on a
// drift profile so that the return's reset has a class of its own.
func TestWideMatchesNarrowMixedRounds(t *testing.T) {
	l := surfacecode.MustNew(5)
	p, err := device.Drift(5, 4e-3, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for q := range p.PLeak {
		p.PLeak[q] *= 10
	}
	rates, err := p.Resolve(l)
	if err != nil {
		t.Fatal(err)
	}
	static := circuit.Plan{CondReturn: true}
	for q := 0; q < l.NumData; q += 2 {
		static.LRCs = append(static.LRCs, circuit.LRC{Data: q, Stab: l.SwapPrimary[q]})
	}
	for _, absent := range [][]int{nil, {2}} {
		t.Run(fmt.Sprintf("absent=%v", absent), func(t *testing.T) {
			compareWideNarrowRounds(t, 5, p.Base, rates, true, func(r int) bool { return r%3 == 0 }, 12,
				fullBlock(), absent, func(r, lane int) circuit.Plan {
					if r%3 != 0 {
						return static
					}
					if lane%5 != 0 {
						return circuit.Plan{}
					}
					q := (lane + r) % l.NumData
					return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}, CondReturn: true}
				})
		})
	}
}

// The three tests below pin the single settle point of RunRoundMasked's lead
// run: round-start noise and the leading ops under the live mask run on the
// shared countdowns, and the countdowns are settled at the first op past
// them. Settling one op late, or not settling at all, fails each of them.

// TestWideMatchesNarrowLeadRunLRCFree: LRC-free masked rounds, where the
// lead run is the whole round, alternate with dense ERASER+M rounds. Under
// TrackML the LRC-free rounds run every measurement and its multi-level
// classification on the block gates, and a dense round that follows starts
// armed. Leakage is raised so leaked operands occur in every round; absent
// sub-words vary.
func TestWideMatchesNarrowLeadRunLRCFree(t *testing.T) {
	l := surfacecode.MustNew(5)
	n := noise.Standard(4e-3)
	n.PLeak *= 10
	for _, absent := range [][]int{nil, {1}, {0, 2}} {
		t.Run(fmt.Sprintf("absent=%v", absent), func(t *testing.T) {
			compareWideNarrow(t, 5, n, nil, true, true, 12, fullBlock(), absent,
				func(r, lane int) circuit.Plan {
					if r%2 == 1 || (lane+r)%2 != 0 {
						return circuit.Plan{}
					}
					q := (lane*3 + r) % l.NumData
					return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}, CondReturn: true}
				})
		})
	}
}

// TestWideMatchesNarrowLeadRunDQLR: masked rounds that plan only DQLR
// pairings keep every stabilizer's closing Hadamard and measure/reset on the
// ancilla under the live mask, so the lead run covers the whole extraction
// and ends at the first OpLeakISWAP, whose classes then step per sub-word.
// In every third round all lanes plan the same pairing, so that first
// LeakageISWAP calls its classes on every lane; other rounds plan sparse
// pairings or none. At p=1e-3 the countdowns run long between firings and
// the lead run leaves calls owed to the LeakageISWAP's classes.
func TestWideMatchesNarrowLeadRunDQLR(t *testing.T) {
	l := surfacecode.MustNew(5)
	n := noise.Standard(1e-3)
	n.PLeak *= 10
	for _, absent := range [][]int{nil, {3}} {
		t.Run(fmt.Sprintf("absent=%v", absent), func(t *testing.T) {
			compareWideNarrow(t, 5, n, nil, false, true, 24, fullBlock(), absent,
				func(r, lane int) circuit.Plan {
					q := (lane*5 + r) % l.NumData
					switch {
					case r%3 == 0:
						q = r % l.NumData
					case r%3 == 1 || (lane+r)%4 != 0:
						return circuit.Plan{}
					}
					return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}},
						Protocol: circuit.ProtocolDQLR}
				})
		})
	}
}

// TestWideMatchesNarrowLeadRunDrift: on a d=7 drift profile every qubit and
// coupler has its own rate class, so each masked round arms and settles
// hundreds of shared countdowns. Sparse ERASER+M rounds alternate with
// LRC-free ones.
func TestWideMatchesNarrowLeadRunDrift(t *testing.T) {
	l := surfacecode.MustNew(7)
	p, err := device.Drift(7, 3e-3, 0.4, 99)
	if err != nil {
		t.Fatal(err)
	}
	for q := range p.PLeak {
		p.PLeak[q] *= 10
	}
	rates, err := p.Resolve(l)
	if err != nil {
		t.Fatal(err)
	}
	compareWideNarrow(t, 7, p.Base, rates, true, true, 8, fullBlock(), nil,
		func(r, lane int) circuit.Plan {
			if r%3 == 0 || (lane+r)%7 != 0 {
				return circuit.Plan{}
			}
			q := (lane*11 + r) % l.NumData
			return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}, CondReturn: true}
		})
}
