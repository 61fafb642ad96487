// Package circuit defines the gate-level intermediate representation for
// syndrome extraction rounds and builds the three round variants the ERASER
// paper uses: plain rounds, rounds with SWAP-based leakage reduction circuits
// (LRCs) on a chosen subset of data qubits, and rounds using Google's DQLR
// protocol (Appendix A.2). The builder plays the role of the paper's QEC
// Schedule Generator datapath: given the Dynamic LRC Insertion block's plan
// it emits the concrete operation sequence for the next round.
package circuit

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/surfacecode"
)

// OpKind enumerates the primitive operations understood by the simulator.
type OpKind uint8

const (
	// OpReset resets a qubit to |0>, removing any leakage; the simulator
	// applies an initialization error with probability p afterwards.
	OpReset OpKind = iota
	// OpH is a Hadamard on Q0.
	OpH
	// OpCNOT is a CNOT with control Q0 and target Q1.
	OpCNOT
	// OpMeasure measures Q0 in the Z basis. Stab tags the stabilizer whose
	// outcome this measurement carries; DataWire marks LRC measurements that
	// read the stabilizer outcome off the swapped data qubit.
	OpMeasure
	// OpCondReturn is the ERASER+M conditional swap-back (Section 4.6.2):
	// if the LRC data-qubit measurement classified |L>, the QSG squashes the
	// return SWAP and resets the parity qubit instead; otherwise the state
	// held on the parity qubit is returned with two CNOTs (the data qubit is
	// freshly reset, so a full three-CNOT SWAP is unnecessary).
	OpCondReturn
	// OpSwapReturn unconditionally returns the parity qubit's held state to
	// the freshly reset data qubit with two CNOTs (plain ERASER / Always).
	OpSwapReturn
	// OpLeakISWAP is DQLR's LeakageISWAP between data qubit Q0 and parity
	// qubit Q1: it moves leakage from the data qubit to the parity qubit and
	// can excite the data qubit if the preceding parity reset failed.
	OpLeakISWAP
)

// Op is one primitive operation. Q1 and Stab are -1 when unused. The int
// fields lead so the two one-byte fields share the last word: an Op is 32
// bytes and a MaskedOp 64, one cache line (TestOpLayout pins both).
type Op struct {
	Q0, Q1   int
	Stab     int
	Kind     OpKind
	DataWire bool
}

// WordLanes is the number of shot lanes packed into one simulator word. It is
// the single definition of the lane width: the batch engine, the decoder's
// per-lane collectors and the experiment harness's work-unit size all derive
// from it.
const WordLanes = 64

// MaskWords is the number of 64-lane words in a LaneMask — the widest block
// the wide batch engine processes at once (MaskWords * WordLanes lanes).
const MaskWords = 4

// MaxLanes is the widest lane count a masked round can address.
const MaxLanes = MaskWords * WordLanes

// LaneMask is the lane mask of a masked op: bit b of word w covers lane
// w*WordLanes+b. The wide engine reads all MaskWords words, one per 64-lane
// sub-word of its block.
type LaneMask = [MaskWords]uint64

// LaneMaskFor returns the mask selecting the first n lanes, n in
// [0, MaxLanes].
func LaneMaskFor(n int) LaneMask {
	var m LaneMask
	for w := range m {
		switch {
		case n >= (w+1)*WordLanes:
			m[w] = ^uint64(0)
		case n > w*WordLanes:
			m[w] = (uint64(1) << uint(n-w*WordLanes)) - 1
		}
	}
	return m
}

// laneMaskZero reports whether no lane of m is set.
func laneMaskZero(m LaneMask) bool { return m[0]|m[1]|m[2]|m[3] == 0 }

// MaskedOp pairs an Op with the lane mask of batch-simulator shots it
// applies to: a set bit means the corresponding shot lane executes the
// operation. The batch engines run masked sequences produced by
// Builder.MaskedRound, which lets adaptive policies with per-shot plans share
// one word-parallel round.
type MaskedOp struct {
	Op   Op
	Mask LaneMask
}

// LRC pairs a data qubit with the stabilizer whose parity qubit it swaps
// with (SWAP LRC) or performs the DQLR protocol with.
type LRC struct {
	Data, Stab int
}

// Protocol selects the leakage-removal primitive used for planned LRCs.
type Protocol uint8

const (
	// ProtocolSwap is the SWAP-based LRC of the main text (Figure 4(b)).
	ProtocolSwap Protocol = iota
	// ProtocolDQLR is Google's DQLR protocol (Figure 19(a)).
	ProtocolDQLR
)

// String names the protocol.
func (p Protocol) String() string {
	if p == ProtocolDQLR {
		return "dqlr"
	}
	return "swap"
}

// Plan is the per-round output of an LRC scheduling policy. A plan that
// Compile returned also carries its op sequence (see Compile).
type Plan struct {
	// LRCs lists the data qubits receiving leakage removal this round, each
	// with its assigned parity qubit (stabilizer index). At most one LRC per
	// data qubit and per stabilizer.
	LRCs []LRC
	// Protocol selects SWAP LRCs or DQLR.
	Protocol Protocol
	// CondReturn enables the ERASER+M conditional swap-back.
	CondReturn bool

	// compiled is the op sequence Compile attached, nil on a plain plan.
	compiled *compiledRound
}

// compiledRound is a compiled plan's op sequence on one layout. The plan
// fields it was built from are kept, so Round serves it only to the plan
// Compile returned and to unmodified copies of it.
type compiledRound struct {
	layout     *surfacecode.Layout
	lrcs       []LRC
	proto      Protocol
	condReturn bool
	ops        []Op
}

// Compile returns p with its op sequence on layout l attached. A Builder on
// l then serves that sequence from Round without building anything; on any
// other layout the plan is built as a plain one. The sequence comes from
// the same code as Round's and is sized exactly. The returned plan holds
// its own copy of p's LRCs, and every copy of the plan shares it and the
// sequence, so neither may be modified: a changed plan is a new plan.
// Static policies compile their few plans once per distance and hand the
// same plans to every run.
func Compile(l *surfacecode.Layout, p Plan) Plan {
	b := NewBuilder(l)
	p.LRCs = slices.Clone(p.LRCs)
	p.compiled = &compiledRound{layout: l, lrcs: p.LRCs, proto: p.Protocol, condReturn: p.CondReturn,
		ops: b.round(make([]Op, 0, b.roundLen(p)), p)}
	return p
}

// serves reports whether c is the sequence of plan on layout l: plan is the
// plan Compile returned for l, or a copy with the same LRC slice and
// settings.
func (c *compiledRound) serves(l *surfacecode.Layout, plan Plan) bool {
	return c.layout == l && c.proto == plan.Protocol && c.condReturn == plan.CondReturn &&
		len(c.lrcs) == len(plan.LRCs) && (len(c.lrcs) == 0 || &c.lrcs[0] == &plan.LRCs[0])
}

// Builder assembles the operation list for successive rounds of a memory
// experiment on a fixed layout. It reuses its internal buffers, so the
// slices returned by Round and MaskedRound are only valid until the next
// call, and no returned slice may be modified.
type Builder struct {
	layout *surfacecode.Layout
	// lrcOf maps stabilizer index -> planned data qubit (or -1).
	lrcOf []int
	// skeleton is the length of a round without LRCs.
	skeleton int

	// bare is the round without LRCs, built on the first uncompiled plan
	// that has none; ops is Round's buffer for the other uncompiled plans.
	bare, ops []Op

	// Masked-round state: per stabilizer, the data qubits LRC'd with it this
	// round and the lanes requesting each pairing. lrcStabs lists, in
	// ascending order, the stabilizers that got entries; lrcSet marks them
	// while the plans merge.
	mops     []MaskedOp
	laneLRCs [][]laneLRC
	laneMask []LaneMask // union of LRC lane masks per stabilizer
	lrcStabs []int
	lrcSet   []uint64
	// mops[:prefix] is the extraction skeleton's prefix (opening Hadamards
	// and the four CNOT steps) and tail its LRC-free rest (the closing
	// Hadamards in X-stabilizer order, then measure + reset per
	// stabilizer), both under prefixActive and kept across MaskedRound
	// calls; prefix is 0 until the first call builds them.
	prefix       int
	prefixActive LaneMask
	tail         []MaskedOp
}

// laneLRC is one merged (data qubit, lane set) LRC entry of a stabilizer.
type laneLRC struct {
	data int
	mask LaneMask
}

// NewBuilder returns a Builder for the layout.
func NewBuilder(l *surfacecode.Layout) *Builder {
	b := &Builder{layout: l, lrcOf: make([]int, l.NumParity), skeleton: 2 * l.NumParity}
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind == surfacecode.KindX {
			b.skeleton += 2 // opening and closing Hadamards
		}
		for _, d := range s.Steps {
			if d >= 0 {
				b.skeleton++
			}
		}
	}
	return b
}

// TwoQubitOpsPerParity reports the number of two-qubit operations a parity
// qubit participates in during one round: 4 without an LRC and 9 with one
// (Figure 1(b)); the forward SWAP costs three CNOTs and the return transfer
// two, because the swapped-back data qubit starts in |0>.
func TwoQubitOpsPerParity(withLRC bool) int {
	if withLRC {
		return 9
	}
	return 4
}

// Round builds the operation sequence for one syndrome extraction round.
//
// A plain round is: H on X ancillas; the four-step CNOT schedule; H on X
// ancillas; measure and reset every ancilla. With a SWAP LRC on (D, S) the
// parity state is swapped onto D after extraction, D is measured (carrying
// S's outcome) and reset — removing any leakage on D — and the state held on
// the parity qubit is returned afterwards. The parity qubit itself is not
// reset in an LRC round, which is why the paper's PUTT keeps it out of LRCs
// in the following round. With DQLR the round is extracted and measured as
// usual, then parity qubits are reset, LeakageISWAPped with their data
// qubit, and reset again.
//
// The returned slice is read-only. A plan Compile built for the builder's
// layout gets its compiled sequence. A plan without LRCs, whatever its
// Protocol and CondReturn, gets the builder's one round without LRCs, built
// once: most rounds of an adaptive policy plan none. Any other plan is
// built into the builder's buffer, valid until the next call.
func (b *Builder) Round(plan Plan) []Op {
	switch c := plan.compiled; {
	case c != nil && c.serves(b.layout, plan):
		return c.ops
	case len(plan.LRCs) == 0:
		if b.bare == nil {
			b.bare = b.round(make([]Op, 0, b.skeleton), plan)
		}
		return b.bare
	}
	b.ops = b.round(fit(b.ops, b.roundLen(plan)), plan)
	return b.ops
}

// roundLen returns the length of plan's round sequence.
func (b *Builder) roundLen(plan Plan) int {
	perLRC := 4 // forward SWAP (three CNOTs) and the return transfer
	if plan.Protocol == ProtocolDQLR {
		perLRC = 2 // LeakageISWAP and the second parity reset
	}
	return b.skeleton + perLRC*len(plan.LRCs)
}

// fit returns buf emptied if it can hold n elements, else a new buffer of
// capacity exactly n, so a buffer never carries append's growth slack.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// round appends plan's sequence to ops; see Round.
func (b *Builder) round(ops []Op, plan Plan) []Op {
	l := b.layout
	for i := range b.lrcOf {
		b.lrcOf[i] = -1
	}
	useSwap := plan.Protocol == ProtocolSwap
	if useSwap {
		for _, lrc := range plan.LRCs {
			b.lrcOf[lrc.Stab] = lrc.Data
		}
	}

	// Hadamards opening X-stabilizer extraction.
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind == surfacecode.KindX {
			ops = append(ops, Op{Kind: OpH, Q0: s.Ancilla, Q1: -1, Stab: -1})
		}
	}

	// Four global CNOT steps.
	for step := 0; step < surfacecode.ExtractionSteps; step++ {
		for i := range l.Stabilizers {
			s := &l.Stabilizers[i]
			d := s.Steps[step]
			if d < 0 {
				continue
			}
			if s.Kind == surfacecode.KindZ {
				ops = append(ops, Op{Kind: OpCNOT, Q0: d, Q1: s.Ancilla, Stab: -1})
			} else {
				ops = append(ops, Op{Kind: OpCNOT, Q0: s.Ancilla, Q1: d, Stab: -1})
			}
		}
	}

	// Forward SWAPs for LRC'd stabilizers (three CNOTs each; disjoint pairs,
	// so ordering between pairs is irrelevant).
	if useSwap {
		for _, lrc := range plan.LRCs {
			p := l.Stabilizers[lrc.Stab].Ancilla
			d := lrc.Data
			ops = append(ops, Op{Kind: OpCNOT, Q0: p, Q1: d, Stab: -1})
			ops = append(ops, Op{Kind: OpCNOT, Q0: d, Q1: p, Stab: -1})
			ops = append(ops, Op{Kind: OpCNOT, Q0: p, Q1: d, Stab: -1})
		}
	}

	// Closing Hadamards: applied to whichever wire holds the X-stabilizer
	// state (the data qubit when an LRC swapped it over).
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind != surfacecode.KindX {
			continue
		}
		wire := s.Ancilla
		if d := b.lrcOf[s.Index]; d >= 0 {
			wire = d
		}
		ops = append(ops, Op{Kind: OpH, Q0: wire, Q1: -1, Stab: -1})
	}

	// Measure + reset the wire carrying each stabilizer outcome.
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		wire, dataWire := s.Ancilla, false
		if d := b.lrcOf[s.Index]; d >= 0 {
			wire, dataWire = d, true
		}
		ops = append(ops, Op{Kind: OpMeasure, Q0: wire, Q1: -1, Stab: s.Index, DataWire: dataWire})
		ops = append(ops, Op{Kind: OpReset, Q0: wire, Q1: -1, Stab: -1})
	}

	// Return transfers for SWAP LRCs.
	if useSwap {
		kind := OpSwapReturn
		if plan.CondReturn {
			kind = OpCondReturn
		}
		for _, lrc := range plan.LRCs {
			p := l.Stabilizers[lrc.Stab].Ancilla
			ops = append(ops, Op{Kind: kind, Q0: p, Q1: lrc.Data, Stab: lrc.Stab})
		}
	}

	// DQLR epilogue: reset parity, LeakageISWAP, reset parity again
	// (Figure 19(a); the first reset already happened above with the normal
	// measure+reset).
	if plan.Protocol == ProtocolDQLR {
		for _, lrc := range plan.LRCs {
			p := l.Stabilizers[lrc.Stab].Ancilla
			ops = append(ops, Op{Kind: OpLeakISWAP, Q0: lrc.Data, Q1: p, Stab: lrc.Stab})
			ops = append(ops, Op{Kind: OpReset, Q0: p, Q1: -1, Stab: -1})
		}
	}

	return ops
}

// MaskedRound merges up to MaxLanes per-lane round plans into one masked
// operation sequence for the batch simulators. plans[i] is lane i's plan;
// lanes whose bit is clear in active are skipped. Every lane shares the
// identical syndrome-extraction skeleton (opening Hadamards, the four CNOT
// steps, closing Hadamards, measure + reset), emitted once under the full
// active mask; only the LRC operations — forward SWAPs, data-wire
// measurements, return transfers, DQLR epilogues — differ by lane and carry
// the mask of the lanes that planned them. Protocol and CondReturn must agree
// across active lanes that schedule LRCs (they are policy-level constants,
// not per-shot decisions); lanes with empty plans carry no vote, so mixing
// zero-valued idle plans with scheduling lanes is fine. The returned slice
// aliases an internal buffer valid until the next call, and must not be
// modified. It keeps the extraction skeleton across calls: a call with the
// same active mask as the last reuses that call's opening Hadamards and CNOT
// steps in place, and copies the runs of its LRC-free tail (closing
// Hadamards, measure + reset) that lie between the stabilizers LRC'd this
// call.
//
// Per stabilizer, the merged (data qubit, lane set) entries are emitted in
// ascending data-qubit order — a canonical order independent of which lanes
// requested each pairing. That invariant is what makes the wide engine
// bit-exact per 64-lane sub-word: restricting the sequence to any one word of
// the mask yields the same relative op order MaskedRound produces for those
// 64 lanes alone, so every sub-word's RNG streams see an identical call
// sequence whatever the other sub-words plan.
func (b *Builder) MaskedRound(plans []Plan, active LaneMask) []MaskedOp {
	l := b.layout
	if b.laneLRCs == nil {
		b.laneLRCs = make([][]laneLRC, l.NumParity)
		b.laneMask = make([]LaneMask, l.NumParity)
		b.lrcSet = make([]uint64, (l.NumParity+63)/64)
		// Twice an LRC-free round (624 ops at d=7) holds the average ERASER
		// round even at p=1e-3; a denser round grows the buffer once.
		b.mops = make([]MaskedOp, 0, 2*b.skeleton)
		b.tail = make([]MaskedOp, 0, l.NumX()+2*l.NumParity)
	}
	for _, si := range b.lrcStabs {
		b.laneLRCs[si] = b.laneLRCs[si][:0]
		b.laneMask[si] = LaneMask{}
	}
	b.lrcStabs = b.lrcStabs[:0]

	// Merge the active lanes' LRCs in one pass. Protocol and CondReturn come
	// from the first active lane that actually schedules LRCs (the one that
	// merges the first entry): both settings only affect LRC ops, and an idle
	// lane's zero-valued plan must not override the scheduling lanes' choice.
	// This keeps the sub-word restriction property exact — the probe result
	// is the same whether it scans one 64-lane word or the whole wide block.
	proto, condReturn := ProtocolSwap, false
	entries := 0
	for i := range plans {
		lrcs := plans[i].LRCs
		w, bit := i>>6, uint64(1)<<uint(i&63)
		if len(lrcs) == 0 || active[w]&bit == 0 {
			continue
		}
		if entries == 0 {
			proto, condReturn = plans[i].Protocol, plans[i].CondReturn
		}
		for _, lrc := range lrcs {
			list := b.laneLRCs[lrc.Stab]
			if len(list) == 0 {
				b.lrcSet[lrc.Stab>>6] |= 1 << uint(lrc.Stab&63)
			}
			merged := false
			for j := range list {
				if list[j].data == lrc.Data {
					list[j].mask[w] |= bit
					merged = true
					break
				}
			}
			if !merged {
				var m LaneMask
				m[w] = bit
				list = append(list, laneLRC{lrc.Data, m})
				// Keep entries sorted by data qubit (see the contract above).
				for j := len(list) - 1; j > 0 && list[j].data < list[j-1].data; j-- {
					list[j], list[j-1] = list[j-1], list[j]
				}
				b.laneLRCs[lrc.Stab] = list
				entries++
			}
			b.laneMask[lrc.Stab][w] |= bit
		}
	}
	for w, m := range b.lrcSet {
		for ; m != 0; m &= m - 1 {
			b.lrcStabs = append(b.lrcStabs, w<<6|bits.TrailingZeros64(m))
		}
		b.lrcSet[w] = 0
	}

	if b.prefix == 0 || active != b.prefixActive {
		b.buildSkeleton(active)
	}
	if laneMaskZero(active) {
		return b.mops[:b.prefix] // no lane runs, so none planned an LRC
	}

	// Every op below is written into its slot. An LRC entry adds at most
	// seven ops: three forward CNOTs, a closing Hadamard, measure + reset
	// and a return (DQLR adds two), while the ancilla ops an LRC'd
	// stabilizer's leftover lanes run replace its tail ops one for one.
	if n := b.prefix + len(b.tail) + 7*entries; cap(b.mops) < n {
		b.mops = slices.Grow(b.mops[:b.prefix], n-b.prefix)
	}
	out := b.mops[:cap(b.mops)]
	n := b.prefix
	useSwap := proto == ProtocolSwap
	var swapped []int // stabilizers whose outcome moves to a data qubit
	if useSwap {
		swapped = b.lrcStabs
	}

	// Forward SWAPs, masked to the lanes that planned each pairing.
	for _, si := range swapped {
		p := l.Stabilizers[si].Ancilla
		for _, e := range b.laneLRCs[si] {
			out[n].set(Op{Kind: OpCNOT, Q0: p, Q1: e.data, Stab: -1}, &e.mask)
			out[n+1].set(Op{Kind: OpCNOT, Q0: e.data, Q1: p, Stab: -1}, &e.mask)
			out[n+2].set(Op{Kind: OpCNOT, Q0: p, Q1: e.data, Stab: -1}, &e.mask)
			n += 3
		}
	}

	// Closing Hadamards on whichever wire holds each X-stabilizer state. A
	// stabilizer no lane swapped keeps it on the ancilla under the whole
	// active mask: the tail's runs between swapped X stabilizers.
	numX, next := l.NumX(), 0
	for _, si := range swapped {
		x := l.XOrdinal(si)
		if x < 0 {
			continue
		}
		n += copy(out[n:], b.tail[next:x])
		next = x + 1
		if rem := laneMaskAndNot(active, b.laneMask[si]); !laneMaskZero(rem) {
			out[n].set(Op{Kind: OpH, Q0: l.Stabilizers[si].Ancilla, Q1: -1, Stab: -1}, &rem)
			n++
		}
		for _, e := range b.laneLRCs[si] {
			out[n].set(Op{Kind: OpH, Q0: e.data, Q1: -1, Stab: -1}, &e.mask)
			n++
		}
	}
	n += copy(out[n:], b.tail[next:numX])

	// Measure + reset the wire carrying each stabilizer outcome. Lanes with
	// an LRC read (and reset) the swapped data qubit and leave the parity
	// qubit untouched, exactly as in the scalar Round.
	next = numX
	for _, si := range swapped {
		n += copy(out[n:], b.tail[next:numX+2*si])
		next = numX + 2*si + 2
		if rem := laneMaskAndNot(active, b.laneMask[si]); !laneMaskZero(rem) {
			p := l.Stabilizers[si].Ancilla
			out[n].set(Op{Kind: OpMeasure, Q0: p, Q1: -1, Stab: si}, &rem)
			out[n+1].set(Op{Kind: OpReset, Q0: p, Q1: -1, Stab: -1}, &rem)
			n += 2
		}
		for _, e := range b.laneLRCs[si] {
			out[n].set(Op{Kind: OpMeasure, Q0: e.data, Q1: -1, Stab: si, DataWire: true}, &e.mask)
			out[n+1].set(Op{Kind: OpReset, Q0: e.data, Q1: -1, Stab: -1}, &e.mask)
			n += 2
		}
	}
	n += copy(out[n:], b.tail[next:])

	// Return transfers for SWAP LRCs.
	kind := OpSwapReturn
	if condReturn {
		kind = OpCondReturn
	}
	for _, si := range swapped {
		p := l.Stabilizers[si].Ancilla
		for _, e := range b.laneLRCs[si] {
			out[n].set(Op{Kind: kind, Q0: p, Q1: e.data, Stab: si}, &e.mask)
			n++
		}
	}

	// DQLR epilogue per planned pairing.
	if proto == ProtocolDQLR {
		for _, si := range b.lrcStabs {
			p := l.Stabilizers[si].Ancilla
			for _, e := range b.laneLRCs[si] {
				out[n].set(Op{Kind: OpLeakISWAP, Q0: e.data, Q1: p, Stab: si}, &e.mask)
				out[n+1].set(Op{Kind: OpReset, Q0: p, Q1: -1, Stab: -1}, &e.mask)
				n += 2
			}
		}
	}

	return out[:n]
}

// buildSkeleton rebuilds the kept prefix (opening Hadamards and the four
// CNOT steps) in mops and the LRC-free tail under active.
func (b *Builder) buildSkeleton(active LaneMask) {
	l := b.layout
	b.mops = b.mops[:0]
	for i := range l.Stabilizers {
		s := &l.Stabilizers[i]
		if s.Kind == surfacecode.KindX {
			b.mops = append(b.mops, MaskedOp{Op{Kind: OpH, Q0: s.Ancilla, Q1: -1, Stab: -1}, active})
		}
	}
	for step := 0; step < surfacecode.ExtractionSteps; step++ {
		for i := range l.Stabilizers {
			s := &l.Stabilizers[i]
			d := s.Steps[step]
			if d < 0 {
				continue
			}
			op := Op{Kind: OpCNOT, Q0: s.Ancilla, Q1: d, Stab: -1}
			if s.Kind == surfacecode.KindZ {
				op.Q0, op.Q1 = d, s.Ancilla
			}
			b.mops = append(b.mops, MaskedOp{op, active})
		}
	}
	b.prefix, b.prefixActive = len(b.mops), active

	// The closing Hadamards are the opening ones again.
	b.tail = append(b.tail[:0], b.mops[:l.NumX()]...)
	for i := range l.Stabilizers {
		p := l.Stabilizers[i].Ancilla
		b.tail = append(b.tail,
			MaskedOp{Op{Kind: OpMeasure, Q0: p, Q1: -1, Stab: i}, active},
			MaskedOp{Op{Kind: OpReset, Q0: p, Q1: -1, Stab: -1}, active})
	}
}

// finals holds FinalMeasurement's sequence for each odd distance d in
// [3, surfacecode.MaxDistance], slot (d-3)/2, built on first use. It
// depends on the data-qubit count alone, so every layout of a distance
// shares it.
var finals [(surfacecode.MaxDistance - 1) / 2]atomic.Pointer[[]Op]

// FinalMeasurement emits a transversal Z-basis measurement of every data
// qubit, tagged with Stab = -1; the experiment harness folds the outcomes
// into the final detector layer and the logical observable. The returned
// slice is read-only, and every builder of a distance gets the same one.
// Concurrent first calls may build it twice; every caller gets the one that
// landed first.
func (b *Builder) FinalMeasurement() []Op {
	slot := &finals[(b.layout.Distance-3)/2]
	if ops := slot.Load(); ops != nil {
		return *ops
	}
	ops := make([]Op, b.layout.NumData)
	for q := range ops {
		ops[q] = Op{Kind: OpMeasure, Q0: q, Q1: -1, Stab: -1}
	}
	slot.CompareAndSwap(nil, &ops)
	return *slot.Load()
}

// set writes op under mask into m in place. Assigning a MaskedOp literal to
// a slice element builds it in a temporary and copies it, which cost the
// masked round build about a third of its time.
func (m *MaskedOp) set(op Op, mask *LaneMask) {
	m.Op = op
	m.Mask = *mask
}

// laneMaskAndNot returns a &^ b per word.
func laneMaskAndNot(a, b LaneMask) LaneMask {
	return LaneMask{a[0] &^ b[0], a[1] &^ b[1], a[2] &^ b[2], a[3] &^ b[3]}
}

// CountTwoQubitOps returns the number of two-qubit operations in ops,
// counting OpSwapReturn/OpCondReturn as two CNOTs and OpLeakISWAP as one.
func CountTwoQubitOps(ops []Op) int {
	n := 0
	for _, op := range ops {
		switch op.Kind {
		case OpCNOT, OpLeakISWAP:
			n++
		case OpSwapReturn, OpCondReturn:
			n += 2
		}
	}
	return n
}
