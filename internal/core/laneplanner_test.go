package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/analytic"
	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/surfacecode"
)

// TestLanePoliciesMatchScalar drives the bit-sliced planner and one scalar
// Policy per lane with the same seeded random event, multi-level and truth
// planes, and requires every lane's plan, the planned-lane words and the LRC
// total to agree each round — over every adaptive policy kind, both
// protocols, both planner widths, full and partial active masks (the
// smallest leaves whole sub-words of the wide planner idle), two code
// distances, and a Reset between two batches. The static kinds have no
// bit-sliced planner; for them it checks instead that one shared Policy
// plans exactly what a per-lane instance does, which is what lets the batch
// worker serve every lane of a static schedule from one instance.
func TestLanePoliciesMatchScalar(t *testing.T) {
	kinds := []Kind{PolicyNone, PolicyAlways, PolicyEraser, PolicyEraserM, PolicyOptimal}
	for _, d := range []int{3, 5} {
		l := surfacecode.MustNew(d)
		for _, k := range kinds {
			for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
				for _, lanes := range []int{circuit.WordLanes, circuit.MaxLanes} {
					for _, activeLanes := range []int{lanes, lanes - 37, lanes/2 - 27} {
						name := fmt.Sprintf("d%d/%v/%v/%d/active%d", d, k, proto, lanes, activeLanes)
						t.Run(name, func(t *testing.T) {
							if k == PolicyNone || k == PolicyAlways {
								checkSharedStaticPolicy(t, l, k, proto, lanes, circuit.LaneMaskFor(activeLanes))
								return
							}
							checkLanePoliciesMatchScalar(t, l, k, proto, lanes, circuit.LaneMaskFor(activeLanes))
						})
					}
				}
			}
		}
	}
}

// laneRecords returns a generator of seeded random per-lane round records for
// a lanes-wide planner, and the scalar RoundInfo of one lane of a record.
func laneRecords(l *surfacecode.Layout, k Kind, proto circuit.Protocol, lanes int) (
	next func(r int, active circuit.LaneMask) LaneRoundInfo, lane func(info LaneRoundInfo, i int) RoundInfo) {
	words := lanes / circuit.WordLanes
	rng := rand.New(rand.NewPCG(uint64(l.Distance), uint64(k)<<8|uint64(proto)<<4|uint64(words)))
	// plane fills n words with bits set at density 2^-sparsity.
	plane := func(n, sparsity int) []uint64 {
		p := make([]uint64, n*words)
		for i := range p {
			p[i] = ^uint64(0)
			for j := 0; j < sparsity; j++ {
				p[i] &= rng.Uint64()
			}
		}
		return p
	}
	laneBit := func(p []uint64, e, i int) bool { return p[e*words+i>>6]>>uint(i&63)&1 == 1 }
	events := make([]uint8, l.NumParity)
	mlPar := make([]sim.MLClass, l.NumParity)
	truth := make([]bool, l.NumData)

	next = func(r int, active circuit.LaneMask) LaneRoundInfo {
		return LaneRoundInfo{
			Round:          r,
			Active:         active,
			Events:         plane(l.NumParity, 3),
			MLParityLeak:   plane(l.NumParity, 5),
			MLParityVal:    plane(l.NumParity, 1),
			TrueLeakedData: plane(l.NumData, 4),
		}
	}
	lane = func(info LaneRoundInfo, i int) RoundInfo {
		for s := range events {
			events[s] = 0
			if laneBit(info.Events, s, i) {
				events[s] = 1
			}
			switch {
			case laneBit(info.MLParityLeak, s, i):
				mlPar[s] = sim.MLLeak
			case laneBit(info.MLParityVal, s, i):
				mlPar[s] = sim.ML1
			default:
				mlPar[s] = sim.ML0
			}
		}
		for q := range truth {
			truth[q] = laneBit(info.TrueLeakedData, q, i)
		}
		return RoundInfo{Round: info.Round, Events: events, MLParity: mlPar, TrueLeakedData: truth}
	}
	return next, lane
}

func checkLanePoliciesMatchScalar(t *testing.T, l *surfacecode.Layout, k Kind, proto circuit.Protocol,
	lanes int, active circuit.LaneMask) {
	next, lane := laneRecords(l, k, proto, lanes)
	lp := NewLanePolicies(k, l, proto, lanes)
	pols := make([]Policy, lanes)
	for i := range pols {
		pols[i] = NewPolicy(k, l, proto)
	}
	if lp.Name() != pols[0].Name() {
		t.Fatalf("Name() = %q, want %q", lp.Name(), pols[0].Name())
	}

	for batch := 0; batch < 2; batch++ {
		lp.Reset()
		for _, p := range pols {
			p.Reset()
		}
		for r := 1; r <= 30; r++ {
			plans := lp.PlanRound(r, active)
			var total int64
			for i, p := range pols {
				if active[i>>6]>>uint(i&63)&1 == 0 {
					if len(plans[i].LRCs) != 0 {
						t.Fatalf("batch %d round %d: inactive lane %d planned %v", batch, r, i, plans[i].LRCs)
					}
					continue
				}
				want := p.PlanRound(r)
				got := plans[i]
				if !slices.Equal(got.LRCs, want.LRCs) {
					t.Fatalf("batch %d round %d lane %d: LRCs %v, want %v", batch, r, i, got.LRCs, want.LRCs)
				}
				if len(want.LRCs) != 0 && (got.Protocol != want.Protocol || got.CondReturn != want.CondReturn) {
					t.Fatalf("batch %d round %d lane %d: plan %+v, want %+v", batch, r, i, got, want)
				}
				total += int64(len(want.LRCs))
			}
			if lp.LRCTotal() != total {
				t.Fatalf("batch %d round %d: LRCTotal = %d, want %d", batch, r, lp.LRCTotal(), total)
			}
			for q := 0; q < l.NumData; q++ {
				pw := lp.PlannedWords(q)
				for i, p := range pols {
					want := active[i>>6]>>uint(i&63)&1 == 1 && p.PlannedLRC(q)
					if got := pw[i>>6]>>uint(i&63)&1 == 1; got != want {
						t.Fatalf("batch %d round %d: lane %d planned(q%d) = %v, want %v", batch, r, i, q, got, want)
					}
				}
			}

			info := next(r, active)
			lp.Observe(info)
			for i, p := range pols {
				if active[i>>6]>>uint(i&63)&1 == 1 {
					p.Observe(lane(info, i))
				}
			}
		}
	}
}

// checkSharedStaticPolicy: NewLanePolicies rejects a static kind, and one
// shared instance of it, observing nothing, plans every round exactly as a
// per-lane instance fed that lane's random round records does.
func checkSharedStaticPolicy(t *testing.T, l *surfacecode.Layout, k Kind, proto circuit.Protocol,
	lanes int, active circuit.LaneMask) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("NewLanePolicies(%v) did not panic", k)
			}
		}()
		NewLanePolicies(k, l, proto, lanes)
	}()

	next, lane := laneRecords(l, k, proto, lanes)
	shared := NewPolicy(k, l, proto)
	pols := make([]Policy, lanes)
	for i := range pols {
		pols[i] = NewPolicy(k, l, proto)
	}
	for batch := 0; batch < 2; batch++ {
		shared.Reset()
		for _, p := range pols {
			p.Reset()
		}
		for r := 1; r <= 30; r++ {
			want := shared.PlanRound(r)
			for i, p := range pols {
				if active[i>>6]>>uint(i&63)&1 == 0 {
					continue
				}
				got := p.PlanRound(r)
				if !slices.Equal(got.LRCs, want.LRCs) || got.Protocol != want.Protocol || got.CondReturn != want.CondReturn {
					t.Fatalf("batch %d round %d lane %d: plan %+v, shared %+v", batch, r, i, got, want)
				}
				for q := 0; q < l.NumData; q++ {
					if p.PlannedLRC(q) != shared.PlannedLRC(q) {
						t.Fatalf("batch %d round %d lane %d: planned(q%d) = %v, shared %v",
							batch, r, i, q, p.PlannedLRC(q), shared.PlannedLRC(q))
					}
				}
			}
			info := next(r, active)
			for i, p := range pols {
				if active[i>>6]>>uint(i&63)&1 == 1 {
					p.Observe(lane(info, i))
				}
			}
		}
	}
}

// TestLanePolicyNamesMatchScalar: the planner reports the name of the
// scalar policy it stands in for, for every adaptive kind and protocol.
func TestLanePolicyNamesMatchScalar(t *testing.T) {
	l := surfacecode.MustNew(3)
	for _, k := range []Kind{PolicyEraser, PolicyEraserM, PolicyOptimal} {
		for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
			got, want := NewLanePolicies(k, l, proto, circuit.WordLanes).Name(), NewPolicy(k, l, proto).Name()
			if got != want {
				t.Errorf("%v/%v: planner named %q, scalar policy %q", k, proto, got, want)
			}
		}
	}
}

// TestLanePoliciesIndependentLanes: an ERASER observation delivered on one
// lane's event bits triggers LRCs in that lane's next plan only.
func TestLanePoliciesIndependentLanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	lp := NewLanePolicies(PolicyEraser, l, circuit.ProtocolSwap, circuit.WordLanes)
	lp.Reset()
	lp.PlanRound(1, circuit.LaneMask{^uint64(0)})

	// Fire every stabilizer neighboring data qubit 4 on lane 7 only.
	events := make([]uint64, l.NumParity)
	for _, s := range l.DataStabs[4] {
		events[s] |= 1 << 7
	}
	lp.Observe(LaneRoundInfo{Round: 1, Active: circuit.LaneMask{^uint64(0)}, Events: events})

	plans := lp.PlanRound(2, circuit.LaneMask{^uint64(0)})
	for i, plan := range plans {
		if i != 7 && len(plan.LRCs) != 0 {
			t.Fatalf("lane %d: planned %d LRCs from lane 7's events", i, len(plan.LRCs))
		}
	}
	// The shared stabilizer flips may speculate neighboring qubits too; the
	// load-bearing claims are that lane 7 schedules qubit 4 and that no
	// other lane schedules anything.
	if len(plans[7].LRCs) == 0 {
		t.Fatal("lane 7 planned no LRCs after its syndrome flips")
	}
	if got := lp.PlannedWords(4)[0]; got != 1<<7 {
		t.Fatalf("PlannedWords(4)[0] = %b, want lane 7", got)
	}
	if lp.LRCTotal() != int64(len(plans[7].LRCs)) {
		t.Fatalf("LRCTotal = %d, want %d", lp.LRCTotal(), len(plans[7].LRCs))
	}
}

// TestLanePoliciesOptimalReadsTruthWords: the oracle policy schedules from
// the packed ground-truth leakage words, per lane.
func TestLanePoliciesOptimalReadsTruthWords(t *testing.T) {
	l := surfacecode.MustNew(3)
	lp := NewLanePolicies(PolicyOptimal, l, circuit.ProtocolSwap, circuit.WordLanes)
	lp.Reset()
	lp.PlanRound(1, circuit.LaneMask{^uint64(0)})

	truth := make([]uint64, l.NumData)
	truth[0] = 1<<2 | 1<<9
	lp.Observe(LaneRoundInfo{Round: 1, Active: circuit.LaneMask{^uint64(0)}, TrueLeakedData: truth})

	lp.PlanRound(2, circuit.LaneMask{^uint64(0)})
	if got := lp.PlannedWords(0)[0]; got != 1<<2|1<<9 {
		t.Fatalf("PlannedWords(0)[0] = %b, want lanes 2 and 9", got)
	}
	if lp.LRCTotal() != 2 {
		t.Fatalf("LRCTotal = %d, want 2", lp.LRCTotal())
	}
}

// TestLanePoliciesInactiveLanes: inactive lanes get empty plans and never
// contribute to the planned words or the LRC count, even when their policy
// state would schedule.
func TestLanePoliciesInactiveLanes(t *testing.T) {
	l := surfacecode.MustNew(3)
	lp := NewLanePolicies(PolicyOptimal, l, circuit.ProtocolSwap, circuit.WordLanes)
	lp.Reset()
	active := circuit.LaneMask{0b11} // only lanes 0 and 1
	lp.PlanRound(1, active)

	truth := make([]uint64, l.NumData)
	truth[0] = 1<<1 | 1<<5 // lane 5 is inactive
	lp.Observe(LaneRoundInfo{Round: 1, Active: active, TrueLeakedData: truth})

	plans := lp.PlanRound(2, active)
	if len(plans[5].LRCs) != 0 {
		t.Fatal("inactive lane 5 produced a plan")
	}
	if got := lp.PlannedWords(0)[0]; got != 1<<1 {
		t.Fatalf("PlannedWords(0)[0] = %b, want lane 1 only", got)
	}
	if lp.LRCTotal() != 1 {
		t.Fatalf("LRCTotal = %d, want 1", lp.LRCTotal())
	}
}

// TestLanePoliciesWideWords: a planner built at circuit.MaxLanes consumes
// and produces the wide engine's flat stride-MaskWords planes, routing each
// sub-word's observations to the right lanes.
func TestLanePoliciesWideWords(t *testing.T) {
	l := surfacecode.MustNew(3)
	words := circuit.MaskWords
	lp := NewLanePolicies(PolicyOptimal, l, circuit.ProtocolSwap, circuit.MaxLanes)
	if lp.Lanes() != circuit.MaxLanes {
		t.Fatalf("Lanes() = %d, want %d", lp.Lanes(), circuit.MaxLanes)
	}
	lp.Reset()
	full := circuit.LaneMaskFor(circuit.MaxLanes)
	lp.PlanRound(1, full)

	// Leak data qubit 0 on lane 2 of sub-word 0, lane 5 of sub-word 1 and
	// lane 63 of sub-word 3 (global lanes 2, 69, 255).
	truth := make([]uint64, l.NumData*words)
	truth[0*words+0] = 1 << 2
	truth[0*words+1] = 1 << 5
	truth[0*words+3] = 1 << 63
	lp.Observe(LaneRoundInfo{Round: 1, Active: full, TrueLeakedData: truth})

	plans := lp.PlanRound(2, full)
	for _, lane := range []int{2, 69, 255} {
		if len(plans[lane].LRCs) != 1 || plans[lane].LRCs[0].Data != 0 {
			t.Fatalf("lane %d plans %+v, want one LRC on qubit 0", lane, plans[lane].LRCs)
		}
	}
	want := []uint64{1 << 2, 1 << 5, 0, 1 << 63}
	got := lp.PlannedWords(0)
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("PlannedWords(0)[%d] = %b, want %b", w, got[w], want[w])
		}
	}
	if lp.LRCTotal() != 3 {
		t.Fatalf("LRCTotal = %d, want 3", lp.LRCTotal())
	}
}

// observeCarryChain is the ERASER/ERASER+M branch of an earlier Observe,
// kept as an oracle: per (data qubit, sub-word) it walks the qubit's checks
// through a carry chain of "more than j flipped" words that stops at the
// threshold, and skips sub-words with no active lane.
func observeCarryChain(lp *LanePolicies, info LaneRoundInfo) {
	l, words := lp.layout, lp.words
	ml := info.MLParityLeak
	if lp.kind != PolicyEraserM {
		ml = nil
	}
	for q := 0; q < l.NumData; q++ {
		stabs, k := l.DataStabs[q], lp.threshold[q]
		for w := 0; w < words; w++ {
			var atLeast [maxSpecThreshold]uint64
			var mlLeak uint64
			if info.Active[w] != 0 {
				for _, s := range stabs {
					e := info.Events[s*words+w]
					for j := k - 1; j > 0; j-- {
						atLeast[j] |= atLeast[j-1] & e
					}
					atLeast[0] |= e
					if ml != nil {
						mlLeak |= ml[s*words+w]
					}
				}
			}
			i := q*words + w
			lp.ltt[i] = (lp.ltt[i] | (atLeast[k-1]|mlLeak)&info.Active[w]) &^ lp.plannedWord[i]
		}
	}
}

// TestObserveMatchesCarryChain drives Observe and the carry-chain oracle
// with the same 200 rounds of seeded random event and |L> planes and the
// same random planned-lane words, and requires identical Leakage Tracking
// Tables after every round. It covers ERASER and ERASER+M, planner widths of
// one to four words, the d=3/5/7 layouts (whose data qubits have thresholds
// 1 and 2), and active masks that are full, shot-capped, missing a middle or
// trailing sub-word, sparse in every sub-word, or empty. Taking the
// at-least-one word for a threshold-2 qubit fails it, and so does dropping
// the Active mask.
func TestObserveMatchesCarryChain(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		l := surfacecode.MustNew(d)
		thresholds := map[int]bool{}
		for q := 0; q < l.NumData; q++ {
			thresholds[analytic.SpeculationThreshold(len(l.DataStabs[q]))] = true
		}
		if !thresholds[1] || !thresholds[2] {
			t.Fatalf("d=%d: thresholds %v, want both 1 and 2", d, thresholds)
		}
		for _, k := range []Kind{PolicyEraser, PolicyEraserM} {
			for words := 1; words <= circuit.MaskWords; words++ {
				lanes := words * circuit.WordLanes
				actives := []circuit.LaneMask{
					circuit.LaneMaskFor(lanes),
					circuit.LaneMaskFor(lanes - 37),
					circuit.LaneMaskFor(lanes/2 + 5),
					{0x5555555555555555, 0xff00ff00ff00ff00, 0x00000000ffffffff, 0x0f0f0f0f0f0f0f0f},
					{},
				}
				if words > 1 {
					holed := circuit.LaneMaskFor(lanes)
					holed[1] = 0
					actives = append(actives, holed)
				}
				lp := NewLanePolicies(k, l, circuit.ProtocolSwap, lanes)
				ref := NewLanePolicies(k, l, circuit.ProtocolSwap, lanes)
				rng := rand.New(rand.NewPCG(uint64(d), uint64(k)<<4|uint64(words)))
				plane := func(n, sparsity int) []uint64 {
					p := make([]uint64, n*words)
					for i := range p {
						p[i] = ^uint64(0)
						for j := 0; j < sparsity; j++ {
							p[i] &= rng.Uint64()
						}
					}
					return p
				}
				for r := 1; r <= 200; r++ {
					active := actives[rng.IntN(len(actives))]
					planned := plane(l.NumData, 3)
					copy(lp.plannedWord, planned)
					copy(ref.plannedWord, planned)
					info := LaneRoundInfo{
						Round:        r,
						Active:       active,
						Events:       plane(l.NumParity, 1+rng.IntN(3)),
						MLParityLeak: plane(l.NumParity, 4),
					}
					lp.Observe(info)
					observeCarryChain(ref, info)
					for j := range lp.ltt {
						if lp.ltt[j] != ref.ltt[j] {
							t.Fatalf("d=%d %v words=%d round %d: ltt[q%d w%d] = %#x, carry chain %#x",
								d, k, words, r, j/words, j%words, lp.ltt[j], ref.ltt[j])
						}
					}
				}
			}
		}
	}
}
