package circuit

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/surfacecode"
)

func countKind(ops []Op, k OpKind) int {
	n := 0
	for _, op := range ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func TestPlainRoundStructure(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		l := surfacecode.MustNew(d)
		b := NewBuilder(l)
		ops := b.Round(Plan{})

		wantCNOTs := 0
		numX := 0
		for _, s := range l.Stabilizers {
			wantCNOTs += s.Weight()
			if s.Kind == surfacecode.KindX {
				numX++
			}
		}
		if got := countKind(ops, OpCNOT); got != wantCNOTs {
			t.Errorf("d=%d: %d CNOTs, want %d", d, got, wantCNOTs)
		}
		if got := countKind(ops, OpH); got != 2*numX {
			t.Errorf("d=%d: %d Hadamards, want %d", d, got, 2*numX)
		}
		if got := countKind(ops, OpMeasure); got != l.NumParity {
			t.Errorf("d=%d: %d measurements, want %d", d, got, l.NumParity)
		}
		if got := countKind(ops, OpReset); got != l.NumParity {
			t.Errorf("d=%d: %d resets, want %d", d, got, l.NumParity)
		}
	}
}

// TestEveryStabilizerMeasuredOnce checks the measurement tagging for plain
// and LRC rounds.
func TestEveryStabilizerMeasuredOnce(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	plans := []Plan{
		{},
		{LRCs: []LRC{{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 7, Stab: l.SwapPrimary[7]}}},
	}
	for pi, plan := range plans {
		seen := make(map[int]int)
		for _, op := range b.Round(plan) {
			if op.Kind == OpMeasure && op.Stab >= 0 {
				seen[op.Stab]++
			}
		}
		for i := range l.Stabilizers {
			if seen[i] != 1 {
				t.Fatalf("plan %d: stabilizer %d measured %d times", pi, i, seen[i])
			}
		}
	}
}

// TestLRCMeasuresDataWire checks that an LRC'd stabilizer's outcome is read
// off the swapped data qubit.
func TestLRCMeasuresDataWire(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	q := 4 // center data qubit
	s := l.SwapPrimary[q]
	ops := b.Round(Plan{LRCs: []LRC{{Data: q, Stab: s}}})
	found := false
	for _, op := range ops {
		if op.Kind == OpMeasure && op.Stab == s {
			if op.Q0 != q || !op.DataWire {
				t.Fatalf("LRC measurement on wire %d (dataWire=%v), want data qubit %d",
					op.Q0, op.DataWire, q)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no measurement for the LRC'd stabilizer")
	}
}

// TestLRCOpCount checks Figure 1(b)'s accounting: a parity qubit in an LRC
// participates in 9 two-qubit operations (4 extraction + 3 forward SWAP + 2
// return), against 4 in a plain round.
func TestLRCOpCount(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	// Pick a weight-4 stabilizer and one of its data qubits.
	var stab, data int = -1, -1
	for _, s := range l.Stabilizers {
		if s.Weight() == 4 {
			stab, data = s.Index, s.Data[0]
			break
		}
	}
	anc := l.Stabilizers[stab].Ancilla
	countTouching := func(ops []Op) int {
		n := 0
		for _, op := range ops {
			switch op.Kind {
			case OpCNOT:
				if op.Q0 == anc || op.Q1 == anc {
					n++
				}
			case OpSwapReturn, OpCondReturn:
				if op.Q0 == anc || op.Q1 == anc {
					n += 2
				}
			}
		}
		return n
	}
	plain := countTouching(b.Round(Plan{}))
	if plain != TwoQubitOpsPerParity(false) {
		t.Fatalf("plain round: parity in %d two-qubit ops, want %d", plain, TwoQubitOpsPerParity(false))
	}
	lrc := countTouching(b.Round(Plan{LRCs: []LRC{{Data: data, Stab: stab}}}))
	if lrc != TwoQubitOpsPerParity(true) {
		t.Fatalf("LRC round: parity in %d two-qubit ops, want %d", lrc, TwoQubitOpsPerParity(true))
	}
}

func TestCondReturnSelection(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	plan := Plan{LRCs: []LRC{{Data: 0, Stab: l.SwapPrimary[0]}}}
	if got := countKind(b.Round(plan), OpCondReturn); got != 0 {
		t.Fatalf("plain plan emitted %d conditional returns", got)
	}
	if got := countKind(b.Round(plan), OpSwapReturn); got != 1 {
		t.Fatalf("plain plan emitted %d swap returns, want 1", got)
	}
	plan.CondReturn = true
	if got := countKind(b.Round(plan), OpCondReturn); got != 1 {
		t.Fatalf("cond plan emitted %d conditional returns, want 1", got)
	}
}

func TestDQLRRound(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	pairs := []LRC{{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 8, Stab: l.SwapPrimary[8]}}
	ops := b.Round(Plan{LRCs: pairs, Protocol: ProtocolDQLR})
	if got := countKind(ops, OpLeakISWAP); got != len(pairs) {
		t.Fatalf("%d LeakageISWAPs, want %d", got, len(pairs))
	}
	// Parity qubits are measured+reset normally, then reset again after the
	// LeakageISWAP: NumParity + len(pairs) resets in total.
	if got := countKind(ops, OpReset); got != l.NumParity+len(pairs) {
		t.Fatalf("%d resets, want %d", got, l.NumParity+len(pairs))
	}
	// DQLR must not emit SWAP CNOT traffic beyond extraction.
	wantCNOTs := 0
	for _, s := range l.Stabilizers {
		wantCNOTs += s.Weight()
	}
	if got := countKind(ops, OpCNOT); got != wantCNOTs {
		t.Fatalf("%d CNOTs, want %d (extraction only)", got, wantCNOTs)
	}
}

func TestXStabilizerHadamardWire(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	// Find an X stabilizer and LRC one of its data qubits with it.
	var xs *surfacecode.Stabilizer
	for i := range l.Stabilizers {
		if l.Stabilizers[i].Kind == surfacecode.KindX {
			xs = &l.Stabilizers[i]
			break
		}
	}
	q := xs.Data[0]
	ops := b.Round(Plan{LRCs: []LRC{{Data: q, Stab: xs.Index}}})
	// The closing Hadamard for this stabilizer must land on the data wire.
	hOnData, hOnAncilla := 0, 0
	for _, op := range ops {
		if op.Kind != OpH {
			continue
		}
		if op.Q0 == q {
			hOnData++
		}
		if op.Q0 == xs.Ancilla {
			hOnAncilla++
		}
	}
	if hOnData != 1 {
		t.Fatalf("closing H on data wire %d times, want 1", hOnData)
	}
	if hOnAncilla != 1 { // only the opening H
		t.Fatalf("H on ancilla %d times, want 1 (opening only)", hOnAncilla)
	}
}

func TestFinalMeasurement(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	ops := b.FinalMeasurement()
	if len(ops) != l.NumData {
		t.Fatalf("%d final ops, want %d", len(ops), l.NumData)
	}
	for i, op := range ops {
		if op.Kind != OpMeasure || op.Q0 != i || op.Stab != -1 {
			t.Fatalf("final op %d malformed: %+v", i, op)
		}
	}
}

// TestBuilderReuse: one Builder fed a seeded sequence of plans returns, for
// every plan, exactly what a fresh builder emits. The sequence mixes random
// LRC sets with repeating plans (the empty plan, whose one bare round the
// builder keeps, and Always's dense and sparse plans, here uncompiled),
// both protocols, CondReturn on and off, and FinalMeasurement calls in
// between. Every non-empty plan is written into one shared LRC buffer in
// place, as the lane planner rewrites its LRC arena every round, so a
// builder that kept anything of a caller's slice from one call to the next
// would build a stale plan. A rebuilt round's buffer has exactly its
// length, with no growth slack.
func TestBuilderReuse(t *testing.T) {
	for _, d := range []int{3, 5} {
		l := surfacecode.MustNew(d)
		b := NewBuilder(l)
		rng := rand.New(rand.NewPCG(1, uint64(d)))
		var dense []LRC
		for q, s := range l.AlwaysAssign {
			if s >= 0 {
				dense = append(dense, LRC{Data: q, Stab: s})
			}
		}
		sparse := []LRC{{Data: l.Leftover, Stab: l.SwapPrimary[l.Leftover]}}
		shared := make([]LRC, 0, l.NumData)
		used := make([]bool, l.NumParity)
		wantFinal := NewBuilder(l).FinalMeasurement()
		for i := 0; i < 2000; i++ {
			var plan Plan
			switch rng.IntN(5) {
			case 0: // empty plan
			case 1:
				plan.LRCs = append(shared[:0], dense...)
			case 2:
				plan.LRCs = append(shared[:0], sparse...)
			default:
				plan.LRCs = shared[:0]
				clear(used)
				for _, q := range rng.Perm(l.NumData)[:1+rng.IntN(3)] {
					s := l.SwapPrimary[q]
					if used[s] {
						s = l.SwapBackup[q]
					}
					if s < 0 || used[s] {
						continue
					}
					used[s] = true
					plan.LRCs = append(plan.LRCs, LRC{Data: q, Stab: s})
				}
			}
			plan.Protocol = Protocol(rng.IntN(2))
			plan.CondReturn = rng.IntN(2) == 1

			got, want := b.Round(plan), NewBuilder(l).Round(plan)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d call %d: reused builder's round differs from a fresh builder's for %+v", d, i, plan)
			}
			if len(want) != cap(want) {
				t.Fatalf("d=%d call %d: round buffer not sized exactly: len %d cap %d", d, i, len(want), cap(want))
			}
			if rng.IntN(4) == 0 && !slices.Equal(b.FinalMeasurement(), wantFinal) {
				t.Fatalf("d=%d call %d: FinalMeasurement differs after reuse", d, i)
			}
		}
	}
}

// plainCopy returns p as a plain plan with a copy of its LRCs: what a
// builder does with it does not depend on any compiled sequence.
func plainCopy(p Plan) Plan {
	return Plan{LRCs: slices.Clone(p.LRCs), Protocol: p.Protocol, CondReturn: p.CondReturn}
}

// TestCompiledPlans: a builder serves a compiled plan's sequence only on
// the layout the plan was compiled for, and only to the plan Compile
// returned or an unmodified copy of it. Any other plan, a copy with a
// changed field included, is built afresh, exactly as a plain plan is. A
// plan compiled at d=5 is handed to a d=7 builder, whose build of it must
// not be the d=5 sequence.
func TestCompiledPlans(t *testing.T) {
	l5, l7 := surfacecode.MustNew(5), surfacecode.MustNew(7)
	var lrcs []LRC
	for q, s := range l5.AlwaysAssign {
		if s >= 0 {
			lrcs = append(lrcs, LRC{Data: q, Stab: s})
		}
	}
	for _, proto := range []Protocol{ProtocolSwap, ProtocolDQLR} {
		plan := Plan{LRCs: lrcs, Protocol: proto}
		compiled := Compile(l5, plan)
		want := NewBuilder(l5).Round(plainCopy(plan))

		b5 := NewBuilder(l5)
		got := b5.Round(compiled)
		if !slices.Equal(got, want) {
			t.Fatalf("%v: compiled sequence differs from a plain build", proto)
		}
		if len(got) != cap(got) {
			t.Fatalf("%v: compiled sequence not sized exactly: len %d cap %d", proto, len(got), cap(got))
		}
		if other := NewBuilder(l5).Round(compiled); &other[0] != &got[0] {
			t.Fatalf("%v: two d=5 builders built the compiled plan instead of serving it", proto)
		}

		if got, want := NewBuilder(l7).Round(compiled), NewBuilder(l7).Round(plainCopy(plan)); !slices.Equal(got, want) {
			t.Fatalf("%v: a d=7 builder served the plan compiled at d=5", proto)
		}

		for _, c := range []struct {
			name   string
			change func(*Plan)
		}{
			{"fewer LRCs", func(p *Plan) { p.LRCs = p.LRCs[1:] }},
			{"other protocol", func(p *Plan) { p.Protocol = 1 - p.Protocol }},
			{"cond return", func(p *Plan) { p.CondReturn = true }},
			{"reordered copy of the LRCs", func(p *Plan) {
				p.LRCs = slices.Clone(p.LRCs)
				p.LRCs[0], p.LRCs[1] = p.LRCs[1], p.LRCs[0]
			}},
		} {
			p := compiled
			c.change(&p)
			if got, want := b5.Round(p), NewBuilder(l5).Round(plainCopy(p)); !slices.Equal(got, want) {
				t.Fatalf("%v, %s: a changed copy of a compiled plan got %d ops, a plain build %d",
					proto, c.name, len(got), len(want))
			}
		}
	}

	// Compile keeps its own copy of the LRCs: a later write to the caller's
	// slice leaves the compiled plan as it was.
	plan := Plan{LRCs: slices.Clone(lrcs)}
	compiled := Compile(l5, plan)
	want := NewBuilder(l5).Round(plainCopy(plan))
	plan.LRCs[0] = plan.LRCs[1]
	if got := NewBuilder(l5).Round(compiled); !slices.Equal(got, want) || !slices.Equal(compiled.LRCs, lrcs) {
		t.Fatal("a write to the slice handed to Compile changed the compiled plan")
	}
}

// TestSharedSequencesAllocateNothing: a fresh builder serves a compiled
// plan and its distance's final measurement, which every builder of the
// distance shares, without allocating.
func TestSharedSequencesAllocateNothing(t *testing.T) {
	l := surfacecode.MustNew(7)
	plan := Compile(l, Plan{LRCs: []LRC{{Data: l.Leftover, Stab: l.SwapPrimary[l.Leftover]}}})
	final := NewBuilder(l).FinalMeasurement()
	b := NewBuilder(l)
	if got := b.FinalMeasurement(); &got[0] != &final[0] {
		t.Fatal("two builders of one distance hold different final measurements")
	}
	if n := testing.AllocsPerRun(100, func() {
		b.Round(plan)
		b.FinalMeasurement()
	}); n != 0 {
		t.Fatalf("Round on a compiled plan and FinalMeasurement allocate %v times per call", n)
	}
}

// TestBareRoundBuiltOnce: every uncompiled plan without LRCs, under either
// protocol and with or without CondReturn, gets one sequence that the
// builder builds once and that a build of another plan in between leaves
// as it was.
func TestBareRoundBuiltOnce(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	bare := b.Round(Plan{})
	want := slices.Clone(bare)
	for _, proto := range []Protocol{ProtocolSwap, ProtocolDQLR} {
		for _, cond := range []bool{false, true} {
			b.Round(Plan{LRCs: []LRC{{Data: l.Leftover, Stab: l.SwapPrimary[l.Leftover]}}, Protocol: proto, CondReturn: cond})
			if !slices.Equal(bare, want) {
				t.Fatalf("%v, CondReturn %v: building a plan with an LRC overwrote the bare round", proto, cond)
			}
			got := b.Round(Plan{LRCs: []LRC{}, Protocol: proto, CondReturn: cond})
			if &got[0] != &bare[0] || !slices.Equal(got, want) {
				t.Fatalf("%v, CondReturn %v: a plan without LRCs did not get the builder's one bare round", proto, cond)
			}
			if fresh := NewBuilder(l).Round(Plan{Protocol: proto, CondReturn: cond}); !slices.Equal(fresh, want) {
				t.Fatalf("%v, CondReturn %v: a fresh builder's bare round differs", proto, cond)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { b.Round(Plan{}) }); n != 0 {
		t.Fatalf("Round on a plan without LRCs allocates %v times per call", n)
	}
}

func TestCountTwoQubitOps(t *testing.T) {
	ops := []Op{
		{Kind: OpCNOT}, {Kind: OpH}, {Kind: OpSwapReturn},
		{Kind: OpCondReturn}, {Kind: OpLeakISWAP}, {Kind: OpMeasure},
	}
	if got := CountTwoQubitOps(ops); got != 1+2+2+1 {
		t.Fatalf("CountTwoQubitOps = %d, want 6", got)
	}
}

// TestOpLayout pins the op sizes: Op's int fields lead and its two one-byte
// fields share the last word, so an Op is 32 bytes and a MaskedOp fills one
// 64-byte cache line. A field added out of order fails here instead of
// silently regrowing every op list.
func TestOpLayout(t *testing.T) {
	if got := reflect.TypeFor[Op]().Size(); got != 32 {
		t.Errorf("Op is %d bytes, want 32", got)
	}
	if got := reflect.TypeFor[MaskedOp]().Size(); got != 64 {
		t.Errorf("MaskedOp is %d bytes, want 64", got)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolSwap.String() != "swap" || ProtocolDQLR.String() != "dqlr" {
		t.Fatal("protocol names wrong")
	}
}

// projectLane filters a masked op sequence down to the ops lane executes.
func projectLane(mops []MaskedOp, lane int) []Op {
	var out []Op
	for _, m := range mops {
		if m.Mask[lane>>6]&(1<<uint(lane&63)) != 0 {
			out = append(out, m.Op)
		}
	}
	return out
}

// maskBits counts the lanes a mask selects.
func maskBits(m LaneMask) int {
	n := 0
	for _, w := range m {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// sortLRCsByStab orders a plan's LRC list by stabilizer index, the order the
// masked emitter uses, so per-lane projections compare op-for-op with the
// scalar Round.
func sortLRCsByStab(lrcs []LRC) []LRC {
	out := append([]LRC(nil), lrcs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Stab < out[j-1].Stab; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestMaskedRoundProjectsToScalarRounds is the core contract of the lane-
// masked builder: restricting the merged masked sequence to any single lane
// must reproduce exactly the op sequence the scalar builder emits for that
// lane's plan.
func TestMaskedRoundProjectsToScalarRounds(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	scalar := NewBuilder(l)

	for _, variant := range []struct {
		name       string
		proto      Protocol
		condReturn bool
	}{
		{"swap", ProtocolSwap, false},
		{"condreturn", ProtocolSwap, true},
		{"dqlr", ProtocolDQLR, false},
	} {
		plans := make([]Plan, 64)
		for i := range plans {
			plans[i] = Plan{Protocol: variant.proto, CondReturn: variant.condReturn}
		}
		// Lane 0: plain round. Lane 1: one LRC. Lane 2: two LRCs. Lane 5:
		// same single LRC as lane 1 (exercising mask merging). Lane 3 is
		// inactive and carries a plan that must be ignored.
		plans[1].LRCs = []LRC{{Data: 4, Stab: l.SwapPrimary[4]}}
		plans[2].LRCs = sortLRCsByStab([]LRC{
			{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 12, Stab: l.SwapPrimary[12]}})
		plans[5].LRCs = plans[1].LRCs
		plans[3].LRCs = []LRC{{Data: 7, Stab: l.SwapPrimary[7]}}
		active := LaneMask{1<<0 | 1<<1 | 1<<2 | 1<<5}

		mops := b.MaskedRound(plans, active)
		for _, lane := range []int{0, 1, 2, 5} {
			want := scalar.Round(plans[lane])
			got := projectLane(mops, lane)
			if len(got) != len(want) {
				t.Fatalf("%s lane %d: %d ops, want %d", variant.name, lane, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s lane %d op %d: %+v, want %+v", variant.name, lane, i, got[i], want[i])
				}
			}
		}
		// The inactive lane's plan must leave no trace: no op may touch only
		// lane 3, and lane 3's projection equals a plain round's skeleton.
		for _, m := range mops {
			if rem := laneMaskAndNot(m.Mask, active); !laneMaskZero(rem) {
				t.Fatalf("%s: op %+v masked to inactive lanes %#x", variant.name, m.Op, rem)
			}
		}
	}
}

// TestMaskedRoundWideLaneProjection is the per-lane contract beyond word 0:
// with plans spread across all MaskWords sub-words, every lane's projection
// of the merged sequence still equals the scalar round for its plan, and no
// op touches an inactive lane.
func TestMaskedRoundWideLaneProjection(t *testing.T) {
	l := surfacecode.MustNew(5)
	b := NewBuilder(l)
	scalar := NewBuilder(l)

	plans := make([]Plan, MaxLanes)
	// One lane per sub-word carries an LRC; lane 200 shares lane 1's plan so
	// its mask merges across sub-words, and lane 131 stays inactive with a
	// plan that must be ignored.
	lanes := []int{0, 1, 70, 130, 200, 255}
	plans[1].LRCs = []LRC{{Data: 4, Stab: l.SwapPrimary[4]}}
	plans[70].LRCs = sortLRCsByStab([]LRC{
		{Data: 0, Stab: l.SwapPrimary[0]}, {Data: 12, Stab: l.SwapPrimary[12]}})
	plans[130].LRCs = []LRC{{Data: 7, Stab: l.SwapPrimary[7]}}
	plans[200].LRCs = plans[1].LRCs
	plans[255].LRCs = []LRC{{Data: 24, Stab: l.SwapPrimary[24]}}
	plans[131].LRCs = []LRC{{Data: 2, Stab: l.SwapPrimary[2]}}
	var active LaneMask
	for _, lane := range lanes {
		active[lane>>6] |= 1 << uint(lane&63)
	}

	mops := b.MaskedRound(plans, active)
	for _, lane := range lanes {
		want := scalar.Round(plans[lane])
		got := projectLane(mops, lane)
		if len(got) != len(want) {
			t.Fatalf("lane %d: %d ops, want %d", lane, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lane %d op %d: %+v, want %+v", lane, i, got[i], want[i])
			}
		}
	}
	for _, m := range mops {
		if rem := laneMaskAndNot(m.Mask, active); !laneMaskZero(rem) {
			t.Fatalf("op %+v masked to inactive lanes %#x", m.Op, rem)
		}
	}
}

// TestMaskedRoundSharedSkeleton: the syndrome-extraction skeleton (opening
// Hadamards and extraction CNOTs) is emitted once under the full active
// mask, never duplicated per lane.
func TestMaskedRoundSharedSkeleton(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	plans := make([]Plan, 64)
	plans[0].LRCs = []LRC{{Data: 0, Stab: l.SwapPrimary[0]}}
	plans[1].LRCs = []LRC{{Data: 8, Stab: l.SwapPrimary[8]}}
	active := LaneMask{0b11}
	mops := b.MaskedRound(plans, active)

	wantCNOTs := 0
	for _, s := range l.Stabilizers {
		wantCNOTs += s.Weight()
	}
	fullMaskCNOTs := 0
	for _, m := range mops {
		if m.Op.Kind == OpCNOT && m.Mask == active {
			fullMaskCNOTs++
		}
	}
	if fullMaskCNOTs != wantCNOTs {
		t.Fatalf("%d full-mask extraction CNOTs, want %d", fullMaskCNOTs, wantCNOTs)
	}
	// Each lane's forward SWAP + return adds 5 lane-masked CNOT-equivalents;
	// they must carry exactly one lane bit here.
	for _, m := range mops {
		if m.Mask != active && maskBits(m.Mask) != 1 {
			t.Fatalf("LRC op %+v carries multi-lane mask %#x, want single lane", m.Op, m.Mask)
		}
	}
}

// TestMaskedRoundStaticPlanMatchesRound: when every lane shares one static
// plan, the masked sequence is the scalar sequence under the full mask.
func TestMaskedRoundStaticPlanMatchesRound(t *testing.T) {
	l := surfacecode.MustNew(3)
	b := NewBuilder(l)
	scalar := NewBuilder(l)
	plan := Plan{LRCs: []LRC{{Data: 2, Stab: l.SwapPrimary[2]}}}
	plans := make([]Plan, 64)
	for i := range plans {
		plans[i] = plan
	}
	active := LaneMask{^uint64(0)}
	mops := b.MaskedRound(plans, active)
	want := scalar.Round(plan)
	if len(mops) != len(want) {
		t.Fatalf("%d masked ops, want %d", len(mops), len(want))
	}
	for i := range want {
		if mops[i].Op != want[i] || mops[i].Mask != active {
			t.Fatalf("op %d: %+v mask %#x, want %+v under full mask", i, mops[i].Op, mops[i].Mask, want[i])
		}
	}
}

// TestMaskedRoundReuseMatchesFresh: a Builder that keeps its extraction
// skeleton across MaskedRound calls returns, call for call, exactly what a
// fresh Builder returns for the same plans and active mask, op for op and
// mask for mask. The seeded call sequence changes the active mask between
// full blocks, shot-capped masks and absent sub-words (often repeating it, so
// the kept prefix and tail are reused), mixes LRC-free rounds with sparse and
// dense SWAP and DQLR rounds, and turns CondReturn on and off. A scripted
// sequence follows: rounds with every stabilizer LRC'd (by two lanes each,
// so each stabilizer merges two entries) under SWAP, CondReturn and DQLR;
// active changing between such rounds; LRC-free rounds right after dense
// ones; and an all-zero active mask whose lanes' plans must leave no trace.
// Every call's sequence must also project, lane by lane, to the scalar
// round of the lane's plan. Keeping the prefix or the tail after active
// changes fails it, as do not clearing the last call's LRC'd stabilizers
// and copying the tail's entry for an LRC'd stabilizer.
func TestMaskedRoundReuseMatchesFresh(t *testing.T) {
	actives := []LaneMask{
		LaneMaskFor(MaxLanes),
		LaneMaskFor(150),
		{^uint64(0), 0, ^uint64(0), 0},
		{0, 0x00ff00ff00ff00ff, ^uint64(0), 1},
		LaneMaskFor(37),
	}
	for _, d := range []int{3, 5, 7} {
		l := surfacecode.MustNew(d)
		reused, scalar := NewBuilder(l), NewBuilder(l)
		check := func(call string, plans []Plan, active LaneMask) {
			t.Helper()
			got := reused.MaskedRound(plans, active)
			want := NewBuilder(l).MaskedRound(plans, active)
			if len(got) != len(want) {
				t.Fatalf("d=%d call %s: %d ops, fresh builder %d", d, call, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d call %s op %d: %+v mask %#x, fresh builder %+v mask %#x",
						d, call, i, got[i].Op, got[i].Mask, want[i].Op, want[i].Mask)
				}
			}
			// A fault the fresh builder shares (a wrong tail copy) shows
			// against the scalar rounds: every active lane projects to the
			// scalar round of its plan with the LRCs in stabilizer order (the
			// masked emitter's order), and no op touches an inactive lane.
			for lane := 0; lane < MaxLanes; lane++ {
				if active[lane>>6]>>uint(lane&63)&1 == 0 {
					continue
				}
				plan := plans[lane]
				plan.LRCs = sortLRCsByStab(plan.LRCs)
				if p, w := projectLane(got, lane), scalar.Round(plan); !slices.Equal(p, w) {
					t.Fatalf("d=%d call %s lane %d: projection of %d ops differs from the scalar round's %d",
						d, call, lane, len(p), len(w))
				}
			}
			for _, m := range got {
				if rem := laneMaskAndNot(m.Mask, active); !laneMaskZero(rem) {
					t.Fatalf("d=%d call %s: op %+v masked to inactive lanes %#x", d, call, m.Op, rem)
				}
			}
		}

		rng := rand.New(rand.NewPCG(uint64(d), 20))
		plans := make([]Plan, MaxLanes)
		active := actives[0]
		for call := 0; call < 60; call++ {
			if rng.IntN(3) == 0 {
				active = actives[rng.IntN(len(actives))]
			}
			proto, condReturn := ProtocolSwap, rng.IntN(2) == 0
			if rng.IntN(3) == 0 {
				proto, condReturn = ProtocolDQLR, false
			}
			density := []int{0, 0, 8, 64}[rng.IntN(4)] // lanes per 256 planning an LRC
			for i := range plans {
				plans[i] = Plan{Protocol: proto, CondReturn: condReturn}
				if rng.IntN(256) >= density {
					continue
				}
				usedStab := map[int]bool{}
				for _, q := range rng.Perm(l.NumData)[:1+rng.IntN(3)] {
					stab := l.SwapPrimary[q]
					if usedStab[stab] || rng.IntN(4) == 0 {
						stab = l.SwapBackup[q]
					}
					if stab < 0 || usedStab[stab] {
						continue
					}
					usedStab[stab] = true
					plans[i].LRCs = append(plans[i].LRCs, LRC{Data: q, Stab: stab})
				}
			}
			check(fmt.Sprint(call), plans, active)
		}

		// every returns plans in which lane s LRCs stabilizer s with its
		// first data qubit and lane NumParity+s with its last, so every
		// stabilizer is LRC'd and merges two entries (every check has
		// weight 2 or 4).
		every := func(proto Protocol, condReturn bool) []Plan {
			ps := make([]Plan, MaxLanes)
			for i := range ps {
				ps[i] = Plan{Protocol: proto, CondReturn: condReturn}
			}
			for si := range l.Stabilizers {
				data := l.Stabilizers[si].Data
				ps[si].LRCs = []LRC{{Data: data[0], Stab: si}}
				ps[l.NumParity+si].LRCs = []LRC{{Data: data[len(data)-1], Stab: si}}
			}
			return ps
		}
		idle := make([]Plan, MaxLanes)
		swapAll, condAll, dqlrAll := every(ProtocolSwap, false), every(ProtocolSwap, true), every(ProtocolDQLR, false)
		full, capped := LaneMaskFor(MaxLanes), LaneMaskFor(l.NumParity+3)
		holed := LaneMask{^uint64(0), 0, ^uint64(0), ^uint64(0)}
		for _, c := range []struct {
			name   string
			plans  []Plan
			active LaneMask
		}{
			{"every-swap", swapAll, full},
			{"idle-after-dense", idle, full},
			{"every-condreturn", condAll, full},
			{"every-swap-capped", swapAll, capped},
			{"every-swap-holed", swapAll, holed},
			{"idle-after-active-change", idle, full},
			{"every-dqlr", dqlrAll, capped},
			{"every-dqlr-full", dqlrAll, full},
			{"every-swap-after-dqlr", swapAll, full},
			{"zero-active", swapAll, LaneMask{}},
			{"every-swap-after-zero", swapAll, full},
			{"idle-zero-active", idle, LaneMask{}},
			{"idle-after-zero", idle, capped},
		} {
			check(c.name, c.plans, c.active)
		}
	}
}
