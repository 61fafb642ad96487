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

// placementCase is the scenario of one TestWideMatchesNarrow* test: a noise
// model, a schedule, the 64-lane units that run it and the sub-words left
// absent in its wide blocks.
type placementCase struct {
	d       int
	noise   noise.Params
	rates   *device.Rates
	trackML bool
	rounds  int
	// masked reports whether round r runs through RunRoundMasked; the other
	// rounds run plan(r, 0) through RunRound.
	masked func(r int) bool
	// plan returns the plan of lane i of unit u in round r as plan(r, u*Lanes+i).
	plan func(r, lane int) circuit.Plan
	// active holds each unit's active lanes, one entry per unit.
	active []uint64
	// absent holds one set of absent sub-words per subtest.
	absent [][]int
}

// trace runs one block with unit place[w] in sub-word w, each unit on its
// own RNG stream, and returns every sub-word's record: after each round its
// event, X frame, Z frame, leakage and both ML planes, then its final
// detectors and observable.
func (c *placementCase) trace(ws *Wide, b *circuit.Builder, place [BlockWords]int) [BlockWords][]uint64 {
	var rngs [BlockWords]*stats.RNG
	var active Block
	for w, u := range place {
		if u >= 0 {
			rngs[w] = stats.NewRNG(1000+uint64(u), uint64(u))
			active[w] = c.active[u]
		}
	}
	ws.Reset(rngs)
	var rec [BlockWords][]uint64
	keep := func(planes ...[]uint64) {
		for _, p := range planes {
			for i, v := range p {
				rec[i%BlockWords] = append(rec[i%BlockWords], v)
			}
		}
	}
	plans := make([]circuit.Plan, BlockLanes)
	for r := 1; r <= c.rounds; r++ {
		var events []uint64
		if c.masked(r) {
			for w, u := range place {
				for i := 0; i < Lanes; i++ {
					plans[w*Lanes+i] = circuit.Plan{}
					if u >= 0 {
						plans[w*Lanes+i] = c.plan(r, u*Lanes+i)
					}
				}
			}
			events = ws.RunRoundMasked(b.MaskedRound(plans, active))
		} else {
			events = ws.RunRound(b.Round(c.plan(r, 0)))
		}
		keep(events, ws.x, ws.z, ws.leaked, ws.MLParityLeak(), ws.MLParityVal())
	}
	det, obs := ws.FinalRound(b.FinalMeasurement())
	keep(det, obs[:])
	return rec
}

// where names the entry at index i of a trace record.
func (c *placementCase) where(l *surfacecode.Layout, i int) string {
	planes := []struct {
		name string
		n    int
	}{
		{"event", l.NumParity}, {"X frame", l.NumQubits}, {"Z frame", l.NumQubits},
		{"leakage", l.NumQubits}, {"ML leak", l.NumParity}, {"ML value", l.NumParity},
	}
	per := 0
	for _, p := range planes {
		per += p.n
	}
	if r := i / per; r < c.rounds {
		j := i % per
		for _, p := range planes {
			if j < p.n {
				return fmt.Sprintf("round %d %s word %d", r+1, p.name, j)
			}
			j -= p.n
		}
	}
	if j := i - c.rounds*per; j < l.NumParity {
		return fmt.Sprintf("final detector %d", j)
	}
	return "observable"
}

// run is the body of every TestWideMatchesNarrow* test. Each unit first runs
// narrow: alone in sub-word 0, the other sub-words absent. Then, for each set
// of absent sub-words, a subtest runs one wide block per unit with the units
// rotated through the present sub-words, so that every unit sits in every
// present sub-word among changing neighbours. After every round each
// sub-word's events, X and Z frames, leakage and both ML planes, and at the
// end its final detectors and observable, must equal its unit's narrow run,
// and an absent sub-word must stay all zero.
//
// Sub-words share the block gates and the rate classes' shared countdowns,
// whose arming depends on every live sub-word's samplers, and a masked
// round's lead run exists only when every present unit is fully active. So
// a settle that comes late, early or never, an owed call paid wrongly, or a
// block gate whose draws differ from the per-sub-word gate's moves a unit's
// draws with its neighbours and fails the test.
func (c *placementCase) run(t *testing.T) {
	t.Helper()
	l := surfacecode.MustNew(c.d)
	ws := NewWide(l, c.noise, surfacecode.KindZ)
	ws.TrackML = c.trackML
	ws.UseRates(c.rates)
	b := circuit.NewBuilder(l)
	narrow := make([][]uint64, len(c.active))
	check := func(t *testing.T, place [BlockWords]int, got [BlockWords][]uint64) {
		t.Helper()
		for w, u := range place {
			for i, v := range got[w] {
				var want uint64 // an absent sub-word stays zero
				if u >= 0 {
					want = narrow[u][i]
				}
				if v != want {
					t.Fatalf("placement %v sub-word %d (unit %d): %s is %#x, want %#x",
						place, w, u, c.where(l, i), v, want)
				}
			}
		}
	}
	for u := range narrow {
		place := [BlockWords]int{u, -1, -1, -1}
		got := c.trace(ws, b, place)
		narrow[u] = got[0]
		check(t, place, got)
	}
	for _, absent := range c.absent {
		t.Run(fmt.Sprintf("absent=%v", absent), func(t *testing.T) {
			var present []int
			for w := 0; w < BlockWords; w++ {
				if !slices.Contains(absent, w) {
					present = append(present, w)
				}
			}
			for k := range narrow {
				place := [BlockWords]int{-1, -1, -1, -1}
				for j, w := range present {
					place[w] = (k + j) % len(narrow)
				}
				check(t, place, c.trace(ws, b, place))
			}
		})
	}
}

// units are the units of most scenarios: five fully active and one capped at
// 40 shots, whose blocks have no masked lead run.
var units = []uint64{AllLanes, AllLanes, AllLanes, AllLanes, AllLanes, LaneMask(40)}

// fullAndPartial runs a scenario among full blocks and among blocks whose
// sub-words 1 and 3 are absent.
var fullAndPartial = [][]int{nil, {1, 3}}

func always(int) bool { return true }
func never(int) bool  { return false }

// cycle runs the same plans on every lane, one per round in turn.
func cycle(plans ...circuit.Plan) func(r, _ int) circuit.Plan {
	return func(r, _ int) circuit.Plan { return plans[(r-1)%len(plans)] }
}

// swap is a SWAP LRC of data qubit q with its primary ancilla.
func swap(l *surfacecode.Layout, q int, condReturn bool) circuit.Plan {
	return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}}, CondReturn: condReturn}
}

// leaky raises every leakage-injection rate tenfold, so that leaked operands
// occur in every round.
func leaky(n noise.Params) noise.Params {
	n.PLeak *= 10
	return n
}

// profileRates builds a device profile, raises its leakage-injection rates
// tenfold if raiseLeak, and returns its base noise and its rate tables on l.
func profileRates(t *testing.T, l *surfacecode.Layout, raiseLeak bool,
	build func() (*device.Profile, error)) (noise.Params, *device.Rates) {
	t.Helper()
	p, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if raiseLeak {
		for q := range p.PLeak {
			p.PLeak[q] *= 10
		}
	}
	rates, err := p.Resolve(l)
	if err != nil {
		t.Fatal(err)
	}
	return p.Base, rates
}

// profiles are the heterogeneous profiles of the Profile tests.
var profiles = []struct {
	name  string
	build func() (*device.Profile, error)
}{
	{"hotspot", func() (*device.Profile, error) { return device.Hotspot(5, 3e-3, 3, 8) }},
	{"drift", func() (*device.Profile, error) { return device.Drift(5, 3e-3, 0.4, 99) }},
}

// TestWideMatchesNarrowStatic: the static round path across plain, SWAP-LRC
// and DQLR rounds under the uniform ERASER noise model.
func TestWideMatchesNarrowStatic(t *testing.T) {
	l := surfacecode.MustNew(5)
	c := placementCase{d: 5, noise: noise.Standard(4e-3), rounds: 9, masked: never,
		plan: cycle(
			circuit.Plan{},
			circuit.Plan{LRCs: []circuit.LRC{{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 12, Stab: l.SwapPrimary[12]}}},
			circuit.Plan{LRCs: []circuit.LRC{{Data: 7, Stab: l.SwapPrimary[7]}}, Protocol: circuit.ProtocolDQLR},
		),
		active: units, absent: fullAndPartial}
	c.run(t)
}

// eraserM plans sparse ERASER+M rounds on l: every third lane returns
// conditionally.
func eraserM(l *surfacecode.Layout) func(r, lane int) circuit.Plan {
	return func(r, lane int) circuit.Plan {
		if (lane+r)%3 != 0 {
			return circuit.Plan{}
		}
		return swap(l, (lane*7+r)%l.NumData, true)
	}
}

// TestWideMatchesNarrowMasked: the masked path with per-lane plans, including
// the ERASER+M conditional return (TrackML).
func TestWideMatchesNarrowMasked(t *testing.T) {
	c := placementCase{d: 5, noise: noise.Standard(4e-3), trackML: true, rounds: 9, masked: always,
		plan: eraserM(surfacecode.MustNew(5)), active: units, absent: fullAndPartial}
	c.run(t)
}

// TestWideMatchesNarrowProfile: masked rounds under hotspot and drift
// profiles, whose rate-class tables the sub-words share while each samples
// its own streams.
func TestWideMatchesNarrowProfile(t *testing.T) {
	l := surfacecode.MustNew(5)
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			n, rates := profileRates(t, l, false, p.build)
			c := placementCase{d: 5, noise: n, rates: rates, rounds: 7, masked: always,
				plan: func(r, lane int) circuit.Plan {
					if (lane+r)%4 != 0 {
						return circuit.Plan{}
					}
					return swap(l, (lane*5+r)%l.NumData, false)
				},
				active: units, absent: fullAndPartial}
			c.run(t)
		})
	}
}

// TestWideMatchesNarrowPartialMask: units with inactive lanes (partial shot
// caps), down to none.
func TestWideMatchesNarrowPartialMask(t *testing.T) {
	l := surfacecode.MustNew(3)
	c := placementCase{d: 3, noise: noise.Standard(5e-3), rounds: 6, masked: always,
		plan: func(r, lane int) circuit.Plan {
			if (lane+r)%5 != 0 {
				return circuit.Plan{}
			}
			return swap(l, (lane+r)%l.NumData, false)
		},
		active: []uint64{AllLanes, LaneMask(17), 0, LaneMask(63), AllLanes, LaneMask(1)},
		absent: fullAndPartial}
	c.run(t)
}

// TestWideMatchesNarrowAbsentSubWords: blocks whose sub-words 1 and 3 are
// absent (nil RNG, as at a range edge), on the static and the masked path.
// Leakage is raised so that leaked-operand handling, which draws per lane,
// runs in every round.
func TestWideMatchesNarrowAbsentSubWords(t *testing.T) {
	l := surfacecode.MustNew(5)
	n := leaky(noise.Standard(4e-3))
	t.Run("static", func(t *testing.T) {
		c := placementCase{d: 5, noise: n, rounds: 8, masked: never,
			plan: func(r, _ int) circuit.Plan {
				if r%2 == 0 {
					return swap(l, 3, false)
				}
				return circuit.Plan{LRCs: []circuit.LRC{{Data: 9, Stab: l.SwapPrimary[9]}}, Protocol: circuit.ProtocolDQLR}
			},
			active: units, absent: [][]int{{1, 3}}}
		c.run(t)
	})
	t.Run("masked", func(t *testing.T) {
		c := placementCase{d: 5, noise: n, trackML: true, rounds: 8, masked: always, plan: eraserM(l),
			active: []uint64{LaneMask(40), AllLanes, AllLanes, AllLanes, AllLanes, AllLanes},
			absent: [][]int{{1, 3}}}
		c.run(t)
	})
}

// TestWideMatchesNarrowProfileStatic: static rounds under heterogeneous
// profiles, where every qubit and coupler can have its own shared
// countdown. The rounds cycle through a plain round, two SWAP LRCs and two
// DQLR LRCs, whose LeakageISWAPs step their classes per sub-word between a
// settle and a re-arm; TrackML adds the per-qubit ML classes. Leakage is
// raised so that leaked operands occur in every round.
func TestWideMatchesNarrowProfileStatic(t *testing.T) {
	l := surfacecode.MustNew(5)
	plans := cycle(
		circuit.Plan{},
		circuit.Plan{LRCs: []circuit.LRC{{Data: 3, Stab: l.SwapPrimary[3]}, {Data: 16, Stab: l.SwapPrimary[16]}}},
		circuit.Plan{LRCs: []circuit.LRC{{Data: 9, Stab: l.SwapPrimary[9]}, {Data: 20, Stab: l.SwapPrimary[20]}},
			Protocol: circuit.ProtocolDQLR},
	)
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			n, rates := profileRates(t, l, true, p.build)
			c := placementCase{d: 5, noise: n, rates: rates, trackML: true, rounds: 9, masked: never,
				plan: plans, active: units, absent: [][]int{nil, {1, 3}, {0}}}
			c.run(t)
		})
	}
}

// TestWideMatchesNarrowMixedRounds: blocks that switch between static and
// masked rounds hand their samplers between the shared countdowns and the
// per-sub-word gates without moving a draw: RunRoundMasked and FinalMeasure
// settle what RunRound armed. The static rounds return conditionally from
// LRCs on every other data qubit, which runs per sub-word inside a static
// round, on a drift profile so that each return's reset has a depolarizing
// class of its own. No runtime schedule emits such a round, so this test
// alone catches a missed settle there.
func TestWideMatchesNarrowMixedRounds(t *testing.T) {
	l := surfacecode.MustNew(5)
	n, rates := profileRates(t, l, true, func() (*device.Profile, error) { return device.Drift(5, 4e-3, 0.4, 5) })
	static := circuit.Plan{CondReturn: true}
	for q := 0; q < l.NumData; q += 2 {
		static.LRCs = append(static.LRCs, circuit.LRC{Data: q, Stab: l.SwapPrimary[q]})
	}
	c := placementCase{d: 5, noise: n, rates: rates, trackML: true, rounds: 12,
		masked: func(r int) bool { return r%3 == 0 },
		plan: func(r, lane int) circuit.Plan {
			switch {
			case r%3 != 0:
				return static
			case lane%5 != 0:
				return circuit.Plan{}
			}
			return swap(l, (lane+r)%l.NumData, true)
		},
		active: units, absent: [][]int{nil, {2}}}
	c.run(t)
}

// The three tests below pin the single settle point of RunRoundMasked's lead
// run: round-start noise and the leading ops under the live mask run on the
// shared countdowns, and the countdowns are settled at the first op past
// them. Settling one op late, or not settling at all, fails each of them.

// TestWideMatchesNarrowLeadRunLRCFree: LRC-free masked rounds, whose lead run
// is the whole round and, under TrackML, runs every measurement and its
// multi-level classification on the block gates, alternate with dense
// ERASER+M rounds, which start armed. Leakage is raised so that leaked
// operands occur in every round.
func TestWideMatchesNarrowLeadRunLRCFree(t *testing.T) {
	l := surfacecode.MustNew(5)
	c := placementCase{d: 5, noise: leaky(noise.Standard(4e-3)), trackML: true, rounds: 12, masked: always,
		plan: func(r, lane int) circuit.Plan {
			if r%2 == 1 || (lane+r)%2 != 0 {
				return circuit.Plan{}
			}
			return swap(l, (lane*3+r)%l.NumData, true)
		},
		active: units, absent: [][]int{nil, {1}, {0, 2}}}
	c.run(t)
}

// TestWideMatchesNarrowLeadRunDQLR: masked rounds that plan only DQLR
// pairings keep every stabilizer's closing Hadamard and measure/reset on the
// ancilla under the live mask, so the lead run covers the whole extraction
// and ends at the first LeakageISWAP, whose classes then step per sub-word.
// In every third round all lanes plan the same pairing, so that this
// LeakageISWAP calls its classes on every lane; other rounds plan sparse
// pairings or none. At p=1e-3 the countdowns run long between firings and
// the lead run leaves calls owed to the LeakageISWAP's classes.
func TestWideMatchesNarrowLeadRunDQLR(t *testing.T) {
	l := surfacecode.MustNew(5)
	c := placementCase{d: 5, noise: leaky(noise.Standard(1e-3)), rounds: 24, masked: always,
		plan: func(r, lane int) circuit.Plan {
			q := (lane*5 + r) % l.NumData
			switch {
			case r%3 == 0:
				q = r % l.NumData
			case r%3 == 1 || (lane+r)%4 != 0:
				return circuit.Plan{}
			}
			return circuit.Plan{LRCs: []circuit.LRC{{Data: q, Stab: l.SwapPrimary[q]}},
				Protocol: circuit.ProtocolDQLR}
		},
		active: units, absent: [][]int{nil, {3}}}
	c.run(t)
}

// TestWideMatchesNarrowLeadRunDrift: on a d=7 drift profile every qubit and
// coupler has its own rate class, so each masked round arms and settles
// hundreds of shared countdowns. Sparse ERASER+M rounds alternate with
// LRC-free ones.
func TestWideMatchesNarrowLeadRunDrift(t *testing.T) {
	l := surfacecode.MustNew(7)
	n, rates := profileRates(t, l, true, func() (*device.Profile, error) { return device.Drift(7, 3e-3, 0.4, 99) })
	c := placementCase{d: 7, noise: n, rates: rates, trackML: true, rounds: 8, masked: always,
		plan: func(r, lane int) circuit.Plan {
			if r%3 == 0 || (lane+r)%7 != 0 {
				return circuit.Plan{}
			}
			return swap(l, (lane*11+r)%l.NumData, true)
		},
		active: units, absent: fullAndPartial}
	c.run(t)
}
