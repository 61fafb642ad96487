package core

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/surfacecode"
)

// TestAlwaysPattern reproduces Figure 3: round 1 has no LRCs, even rounds
// swap d^2-1 data qubits, odd rounds from 3 carry the leftover.
func TestAlwaysPattern(t *testing.T) {
	l := surfacecode.MustNew(5)
	p := NewPolicy(PolicyAlways, l, circuit.ProtocolSwap)
	p.Reset()
	if got := len(p.PlanRound(1).LRCs); got != 0 {
		t.Fatalf("round 1: %d LRCs, want 0", got)
	}
	if got := len(p.PlanRound(2).LRCs); got != l.NumData-1 {
		t.Fatalf("round 2: %d LRCs, want %d", got, l.NumData-1)
	}
	plan3 := p.PlanRound(3)
	if len(plan3.LRCs) != 1 || plan3.LRCs[0].Data != l.Leftover {
		t.Fatalf("round 3: %+v, want the leftover qubit %d", plan3.LRCs, l.Leftover)
	}
	if got := len(p.PlanRound(4).LRCs); got != l.NumData-1 {
		t.Fatalf("round 4: %d LRCs, want %d", got, l.NumData-1)
	}
}

// TestAlwaysAverageMatchesTable4: the average LRCs per round over many
// rounds approaches d^2/2, the Always-LRCs column of Table 4.
func TestAlwaysAverageMatchesTable4(t *testing.T) {
	for _, tc := range []struct {
		d    int
		want float64
	}{{3, 4.2}, {5, 12}, {7, 24}, {9, 40}, {11, 60}} {
		l := surfacecode.MustNew(tc.d)
		p := NewPolicy(PolicyAlways, l, circuit.ProtocolSwap)
		p.Reset()
		total := 0
		rounds := 10 * tc.d
		for r := 1; r <= rounds; r++ {
			total += len(p.PlanRound(r).LRCs)
		}
		avg := float64(total) / float64(rounds)
		// Table 4's values are within ~7% of d^2/2 (the exact figure depends
		// on which round parity hosts the dense LRC round).
		if rel := avg/tc.want - 1; rel < -0.07 || rel > 0.07 {
			t.Errorf("d=%d: average %.2f LRCs/round, Table 4 says %v", tc.d, avg, tc.want)
		}
	}
}

// alwaysRule is Always-LRCs' schedule written as a per-round rule, the
// oracle for the compiled schedules: round 1 has no LRCs, even rounds swap
// the matched data qubits, odd rounds from 3 on carry the leftover; DQLR
// runs the dense round every round and adds the leftover on odd ones.
func alwaysRule(l *surfacecode.Layout, proto circuit.Protocol, round int) []circuit.LRC {
	var pairs []circuit.LRC
	dense := round%2 == 0
	carry := round%2 == 1 && round >= 3
	if proto == circuit.ProtocolDQLR {
		dense = true
		carry = round%2 == 1
	}
	if dense {
		for q := 0; q < l.NumData; q++ {
			if s := l.AlwaysAssign[q]; s >= 0 {
				pairs = append(pairs, circuit.LRC{Data: q, Stab: s})
			}
		}
	}
	if carry && l.Leftover >= 0 {
		pairs = append(pairs, circuit.LRC{Data: l.Leftover, Stab: l.SwapPrimary[l.Leftover]})
	}
	return pairs
}

// TestStaticSchedulesMatchRule: for d = 3 to 11, NoLRC and Always under
// both protocols plan rounds 1 to 2d+3 from the one schedule NewPolicy
// shares per (distance, kind, protocol). Every plan is the one alwaysRule
// (or, for NoLRC, the empty plan) gives, PlannedLRC holds on exactly its
// data qubits, and a builder serves its compiled sequence, which equals a
// fresh builder's build of a plain copy of the plan op for op.
func TestStaticSchedulesMatchRule(t *testing.T) {
	for d := 3; d <= 11; d += 2 {
		l := surfacecode.MustNew(d)
		for _, k := range []Kind{PolicyNone, PolicyAlways} {
			for _, proto := range []circuit.Protocol{circuit.ProtocolSwap, circuit.ProtocolDQLR} {
				p := NewPolicy(k, l, proto)
				if p.(*static).sched != NewPolicy(k, l, proto).(*static).sched {
					t.Fatalf("d=%d %s: two policies hold different schedules", d, p.Name())
				}
				b, other := circuit.NewBuilder(l), circuit.NewBuilder(l)
				p.Reset()
				for r := 1; r <= 2*d+3; r++ {
					plan := p.PlanRound(r)
					want := circuit.Plan{}
					if k == PolicyAlways {
						want = circuit.Plan{LRCs: alwaysRule(l, proto, r), Protocol: proto}
					}
					if !slices.Equal(plan.LRCs, want.LRCs) || plan.Protocol != want.Protocol || plan.CondReturn {
						t.Fatalf("d=%d %s round %d: plan %+v, want %+v", d, p.Name(), r, plan, want)
					}
					planned := make([]bool, l.NumData)
					for _, lrc := range plan.LRCs {
						planned[lrc.Data] = true
					}
					for q, want := range planned {
						if p.PlannedLRC(q) != want {
							t.Fatalf("d=%d %s round %d: PlannedLRC(%d) = %v, want %v", d, p.Name(), r, q, !want, want)
						}
					}
					plain := circuit.Plan{LRCs: slices.Clone(plan.LRCs), Protocol: plan.Protocol}
					ops := b.Round(plan)
					if !slices.Equal(ops, circuit.NewBuilder(l).Round(plain)) {
						t.Fatalf("d=%d %s round %d: compiled sequence differs from a plain build", d, p.Name(), r)
					}
					if &other.Round(plan)[0] != &ops[0] {
						t.Fatalf("d=%d %s round %d: the plan is not compiled", d, p.Name(), r)
					}
				}
			}
		}
	}
}

// TestStaticScheduleOnPatchedLayout: a private copy of a layout gets a
// schedule of its own, planned from its own tables, and leaves the shared
// one as it was.
func TestStaticScheduleOnPatchedLayout(t *testing.T) {
	shared := surfacecode.MustNew(5)
	l := patchableLayout(5)
	q := l.Leftover
	if l.SwapBackup[q] < 0 {
		t.Fatalf("the d=5 leftover qubit %d has no backup parity qubit", q)
	}
	l.SwapPrimary[q] = l.SwapBackup[q]
	p := NewPolicy(PolicyAlways, l, circuit.ProtocolSwap)
	if p.(*static).sched == NewPolicy(PolicyAlways, shared, circuit.ProtocolSwap).(*static).sched {
		t.Fatal("a patched layout shares the shared layout's schedule")
	}
	want := circuit.LRC{Data: q, Stab: l.SwapBackup[q]}
	if got := p.PlanRound(3).LRCs; len(got) != 1 || got[0] != want {
		t.Fatalf("round 3 on the patched layout: %+v, want [%+v]", got, want)
	}
	got := NewPolicy(PolicyAlways, shared, circuit.ProtocolSwap).PlanRound(3).LRCs
	if want := alwaysRule(shared, circuit.ProtocolSwap, 3); !slices.Equal(got, want) {
		t.Fatalf("round 3 on the shared layout: %+v, want %+v", got, want)
	}
}

// isolatedFlipPair returns two stabilizers adjacent to q whose only shared
// data qubit is q, so flipping both speculates q and no other qubit with
// threshold >= 2 (choose q away from the lattice corners).
func isolatedFlipPair(t *testing.T, l *surfacecode.Layout, q int) (int, int) {
	t.Helper()
	stabs := l.DataStabs[q]
	for i := 0; i < len(stabs); i++ {
		for j := i + 1; j < len(stabs); j++ {
			if len(l.SharedData(stabs[i], stabs[j])) == 1 {
				return stabs[i], stabs[j]
			}
		}
	}
	t.Fatalf("no isolated flip pair for qubit %d", q)
	return -1, -1
}

// TestEraserReactsToSpeculation: synthetic detection events around a data
// qubit cause an LRC for it in the next plan, and the LTT clears after.
func TestEraserReactsToSpeculation(t *testing.T) {
	l := surfacecode.MustNew(5)
	e := NewEraser(l, false, circuit.ProtocolSwap)
	e.Reset()
	q := l.DataID(2, 2) // center: all neighbors are bulk, nothing else trips
	if got := len(e.PlanRound(1).LRCs); got != 0 {
		t.Fatalf("round 1 planned %d LRCs", got)
	}
	s1, s2 := isolatedFlipPair(t, l, q)
	ev := make([]uint8, l.NumParity)
	ev[s1], ev[s2] = 1, 1
	e.Observe(RoundInfo{Round: 1, Events: ev})
	plan := e.PlanRound(2)
	if len(plan.LRCs) != 1 || plan.LRCs[0].Data != q {
		t.Fatalf("round 2 plan %+v, want LRC on %d", plan.LRCs, q)
	}
	if !e.PlannedLRC(q) {
		t.Fatal("PlannedLRC out of sync")
	}
	// Quiet round: entry cleared by the LRC, no further LRCs.
	e.Observe(RoundInfo{Round: 2, Events: make([]uint8, l.NumParity)})
	if got := len(e.PlanRound(3).LRCs); got != 0 {
		t.Fatalf("round 3 planned %d LRCs after quiet syndrome", got)
	}
}

// TestEraserRetriesBlockedRequest: with a forced primary collision and no
// backups, the losing request persists in the LTT; it stays blocked while
// the parity qubit is under PUTT cooldown and is granted the round after.
func TestEraserRetriesBlockedRequest(t *testing.T) {
	l := patchableLayout(5)
	var stab *surfacecode.Stabilizer
	for i := range l.Stabilizers {
		if l.Stabilizers[i].Weight() == 4 {
			stab = &l.Stabilizers[i]
			break
		}
	}
	q1, q2 := stab.Data[0], stab.Data[1]
	l.SwapPrimary[q1], l.SwapPrimary[q2] = stab.Index, stab.Index

	e := NewEraser(l, false, circuit.ProtocolSwap)
	e.DLI().SetUseBackup(false)
	e.Reset()
	// Mark both qubits directly through the LSB threshold override: a
	// single-flip threshold lets one event per qubit suffice.
	e.LSB().SetThreshold(4) // no accidental speculation from the events below
	e.LSB().Speculated()[q1] = true
	e.LSB().Speculated()[q2] = true

	plan2 := e.PlanRound(2)
	if len(plan2.LRCs) != 1 || plan2.LRCs[0].Stab != stab.Index {
		t.Fatalf("round 2 plan %+v, want exactly one LRC on parity %d", plan2.LRCs, stab.Index)
	}
	granted := plan2.LRCs[0].Data
	blocked := q1 + q2 - granted
	e.Observe(RoundInfo{Round: 2, Events: make([]uint8, l.NumParity)})

	// Round 3: the shared parity is cooling down, so the blocked request
	// stays pending.
	if got := len(e.PlanRound(3).LRCs); got != 0 {
		t.Fatalf("round 3 planned %d LRCs, want 0 (PUTT cooldown, no backup)", got)
	}
	e.Observe(RoundInfo{Round: 3, Events: make([]uint8, l.NumParity)})

	plan4 := e.PlanRound(4)
	if len(plan4.LRCs) != 1 || plan4.LRCs[0].Data != blocked {
		t.Fatalf("round 4 plan %+v, want retried LRC on %d", plan4.LRCs, blocked)
	}
}

// TestEraserMCondReturn: ERASER+M plans with the conditional swap-back,
// plain ERASER does not.
func TestEraserMCondReturn(t *testing.T) {
	l := surfacecode.MustNew(3)
	if NewEraser(l, false, circuit.ProtocolSwap).PlanRound(1).CondReturn {
		t.Fatal("plain ERASER must not use the conditional return")
	}
	if !NewEraser(l, true, circuit.ProtocolSwap).PlanRound(1).CondReturn {
		t.Fatal("ERASER+M must use the conditional return")
	}
	if NewEraser(l, true, circuit.ProtocolDQLR).PlanRound(1).CondReturn {
		t.Fatal("DQLR protocol has no swap to squash")
	}
}

// TestOptimalFollowsTruth: the oracle schedules exactly the leaked set.
func TestOptimalFollowsTruth(t *testing.T) {
	l := surfacecode.MustNew(3)
	p := NewPolicy(PolicyOptimal, l, circuit.ProtocolSwap)
	p.Reset()
	truth := make([]bool, l.NumData)
	truth[2], truth[6] = true, true
	p.Observe(RoundInfo{Round: 1, Events: make([]uint8, l.NumParity), TrueLeakedData: truth})
	plan := p.PlanRound(2)
	if len(plan.LRCs) != 2 {
		t.Fatalf("optimal planned %d LRCs, want 2", len(plan.LRCs))
	}
	seen := map[int]bool{}
	for _, lrc := range plan.LRCs {
		seen[lrc.Data] = true
	}
	if !seen[2] || !seen[6] {
		t.Fatalf("optimal plan %+v, want qubits 2 and 6", plan.LRCs)
	}
	// Truth refreshes: an empty snapshot empties the plan.
	p.Observe(RoundInfo{Round: 2, Events: make([]uint8, l.NumParity),
		TrueLeakedData: make([]bool, l.NumData)})
	if got := len(p.PlanRound(3).LRCs); got != 0 {
		t.Fatalf("optimal planned %d LRCs on clean truth", got)
	}
}

func TestPolicyNamesAndKinds(t *testing.T) {
	l := surfacecode.MustNew(3)
	cases := map[Kind]string{
		PolicyNone:    "NoLRC",
		PolicyAlways:  "Always-LRCs",
		PolicyEraser:  "ERASER",
		PolicyEraserM: "ERASER+M",
		PolicyOptimal: "Optimal",
	}
	for k, want := range cases {
		if got := NewPolicy(k, l, circuit.ProtocolSwap).Name(); got != want {
			t.Errorf("policy %v name = %q, want %q", k, got, want)
		}
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	// DQLR variants rename themselves.
	if got := NewPolicy(PolicyAlways, l, circuit.ProtocolDQLR).Name(); got != "DQLR" {
		t.Errorf("always+DQLR name = %q", got)
	}
	if got := NewPolicy(PolicyEraser, l, circuit.ProtocolDQLR).Name(); got != "ERASER-DQLR" {
		t.Errorf("eraser+DQLR name = %q", got)
	}
	if got := NewPolicy(PolicyOptimal, l, circuit.ProtocolDQLR).Name(); got != "Optimal-DQLR" {
		t.Errorf("optimal+DQLR name = %q", got)
	}
}

func TestNoLRCPolicyIsInert(t *testing.T) {
	l := surfacecode.MustNew(3)
	p := NewPolicy(PolicyNone, l, circuit.ProtocolSwap)
	p.Reset()
	for r := 1; r <= 5; r++ {
		if len(p.PlanRound(r).LRCs) != 0 {
			t.Fatal("NoLRC scheduled an LRC")
		}
	}
	if p.PlannedLRC(0) {
		t.Fatal("NoLRC claims a planned LRC")
	}
}

func TestLatencyModel(t *testing.T) {
	prev := 0.0
	for _, d := range []int{3, 5, 7, 9, 11} {
		ns := EstimateLatencyNS(d)
		if ns <= prev {
			t.Fatalf("latency not increasing at d=%d", d)
		}
		prev = ns
		if ns >= 6 {
			t.Fatalf("latency %v ns at d=%d exceeds the paper's ~5 ns", ns, d)
		}
		if !MeetsDeadline(d) {
			t.Fatalf("d=%d misses the %d ns window", d, DecisionWindowNS)
		}
	}
}
