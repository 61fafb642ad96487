package core

import (
	"fmt"
	"math/bits"

	"repro/internal/analytic"
	"repro/internal/circuit"
	"repro/internal/surfacecode"
)

// LaneRoundInfo is the batch-native classical record of one round: the same
// information RoundInfo carries per shot, packed one word per stabilizer (or
// data qubit) per 64-lane sub-word. The per-plane slices use the wide
// engine's flat layout — entity e's word for sub-word w sits at index
// e*words+w, where words is the lane count / circuit.WordLanes the planner
// was built with. A 256-lane planner (words = 4) therefore consumes the
// batch engine's outputs unchanged.
type LaneRoundInfo struct {
	// Round is the 1-based index of the round just executed.
	Round int
	// Active masks the lanes holding real shots (a partial final batch
	// leaves high lanes inactive). Only the planner's first lanes/64 words
	// are consulted.
	Active circuit.LaneMask
	// Events holds the detection-event planes per stabilizer.
	Events []uint64
	// MLParityLeak and MLParityVal are the multi-level readout bit-planes
	// per stabilizer: is-leak and value. Only ERASER+M reads MLParityLeak.
	// No policy reads MLParityVal — the LSB reacts to |L> classifications
	// only — and the field stays for source compatibility with callers
	// that still fill it.
	MLParityLeak []uint64
	MLParityVal  []uint64
	// TrueLeakedData holds the ground-truth leakage planes per data qubit.
	// Only the idealized Optimal policy reads it.
	TrueLeakedData []uint64
}

// maxSpecThreshold bounds analytic.SpeculationThreshold over a layout's
// data qubits: a surface-code data qubit has 2 to 4 neighboring checks.
// Observe counts flipped checks only up to it, and NewLanePolicies checks
// the bound.
const maxSpecThreshold = 2

// LanePolicies runs one adaptive scheduling policy (ERASER, ERASER+M or
// Optimal) over a configurable number of batch-simulator lanes at once —
// batch.BlockLanes in front of the wide engine — so policies whose plans
// react to per-shot observations can drive the word-parallel engines. It is
// bit-sliced: the Leakage Tracking Table and the PUTT are lane-word planes,
// Observe runs the LSB's "at least ⌈n/2⌉ neighboring checks flipped" rule
// as word ops over all lanes, and PlanRound runs the DLI's primary/backup
// SWAP-lookup under per-parity-qubit usage words — the combinational form of
// the paper's hardware blocks, producing for every lane exactly the plan a
// scalar Policy instance would. PlanRound exposes the per-lane plans (for
// circuit.Builder.MaskedRound) together with per-data-qubit planned-lane
// words and the total LRC count (for the harness accounting). The static
// kinds (NoLRC, Always) plan the same for every lane, so one scalar Policy
// serves a whole batch and NewLanePolicies rejects them.
//
// Every per-qubit plane uses the engines' flat layout: qubit q's word for
// sub-word w sits at index q*words+w.
type LanePolicies struct {
	kind   Kind
	layout *surfacecode.Layout
	name   string
	lanes  int
	words  int
	plans  []circuit.Plan

	threshold []int    // [NumData] LSB speculation cutoff
	usePUTT   bool     // DLI parity-qubit cooldown (off for DQLR and Optimal)
	ltt       []uint64 // [NumData*words] Leakage Tracking Table
	putt      []uint64 // [NumParity*words] parity qubits used last round; all zero without usePUTT
	used      []uint64 // [NumParity*words] scratch: parity qubits taken this round
	planLanes circuit.LaneMask

	plannedWord []uint64      // [NumData*words] lanes scheduling an LRC on q
	laneLRCs    []int32       // [lanes] scratch: each lane's LRC count, then its next arena slot
	planned     []laneLRC     // this round's LRCs over all active lanes, in planning order
	arena       []circuit.LRC // this round's LRCs, lane after lane; plans[i].LRCs are its sub-slices
}

// laneLRC is one LRC the DLI planned for one lane.
type laneLRC struct {
	lane int32
	lrc  circuit.LRC
}

// NewLanePolicies builds a planner for lanes shots of the given adaptive
// policy kind. lanes must be a positive multiple of circuit.WordLanes no
// larger than circuit.MaxLanes.
func NewLanePolicies(k Kind, l *surfacecode.Layout, proto circuit.Protocol, lanes int) *LanePolicies {
	if lanes <= 0 || lanes > circuit.MaxLanes || lanes%circuit.WordLanes != 0 {
		panic(fmt.Sprintf("core: lane count %d not a multiple of %d in (0, %d]",
			lanes, circuit.WordLanes, circuit.MaxLanes))
	}
	if k == PolicyNone || k == PolicyAlways {
		panic(fmt.Sprintf("core: %v is a static policy; plan it with one Policy for all lanes", k))
	}
	words := lanes / circuit.WordLanes
	lp := &LanePolicies{
		kind:        k,
		layout:      l,
		name:        PolicyName(k, proto),
		lanes:       lanes,
		words:       words,
		plans:       make([]circuit.Plan, lanes),
		plannedWord: make([]uint64, l.NumData*words),
		laneLRCs:    make([]int32, lanes),
	}
	lp.threshold = make([]int, l.NumData)
	for q := range lp.threshold {
		lp.threshold[q] = analytic.SpeculationThreshold(len(l.DataStabs[q]))
		if t := lp.threshold[q]; t < 1 || t > maxSpecThreshold {
			panic(fmt.Sprintf("core: speculation threshold %d of data qubit %d outside [1, %d]", t, q, maxSpecThreshold))
		}
	}
	lp.usePUTT = k != PolicyOptimal && proto != circuit.ProtocolDQLR
	lp.ltt = make([]uint64, l.NumData*words)
	lp.putt = make([]uint64, l.NumParity*words)
	lp.used = make([]uint64, l.NumParity*words)
	plan := circuit.Plan{Protocol: proto, CondReturn: k == PolicyEraserM && proto == circuit.ProtocolSwap}
	for i := range lp.plans {
		lp.plans[i] = plan
	}
	return lp
}

// Name identifies the underlying policy in reports.
func (lp *LanePolicies) Name() string { return lp.name }

// Lanes returns the number of lanes the planner drives.
func (lp *LanePolicies) Lanes() int { return lp.lanes }

// Reset prepares every lane for a new batch of shots.
func (lp *LanePolicies) Reset() {
	clear(lp.ltt)
	clear(lp.putt)
	clear(lp.plannedWord)
	lp.clearPlans()
	lp.planned = lp.planned[:0]
}

// clearPlans empties the plans of the lanes that scheduled LRCs last round.
func (lp *LanePolicies) clearPlans() {
	for w, m := range lp.planLanes {
		for ; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			lp.plans[i].LRCs = nil
			lp.laneLRCs[i] = 0
		}
	}
	lp.planLanes = circuit.LaneMask{}
}

// PlanRound returns the per-lane plans for the upcoming round (aliased;
// valid until the next call). Inactive lanes get empty plans.
//
// The DLI records the round's LRCs in planning order, ascending in data
// qubit, and counts each lane's. They are then laid out lane after lane in
// one arena the planner keeps: each plan's LRCs is a full-capacity
// sub-slice of it, so an append by a caller copies instead of overwriting
// the next lane's list, and each lane's LRCs keep the order the scalar DLI
// emits them in.
func (lp *LanePolicies) PlanRound(round int, active circuit.LaneMask) []circuit.Plan {
	lp.clearPlans()
	clear(lp.used)
	l, words := lp.layout, lp.words
	ltt, used, putt, count := lp.ltt, lp.used, lp.putt, lp.laneLRCs
	planned := lp.planned[:0]
	for q := 0; q < l.NumData; q++ {
		prim, back := l.SwapPrimary[q], l.SwapBackup[q]
		for w := 0; w < words; w++ {
			i := q*words + w
			req := ltt[i] & active[w]
			lp.plannedWord[i] = 0
			if req == 0 {
				continue
			}
			// Each lane takes the primary parity qubit when it is neither
			// taken this round nor cooling down in the PUTT, else the backup
			// under the same rule; lanes losing both retry next round.
			got := req &^ (used[prim*words+w] | putt[prim*words+w])
			used[prim*words+w] |= got
			planned = planLRC(planned, count, w, got, circuit.LRC{Data: q, Stab: prim})
			if rest := req &^ got; rest != 0 && back >= 0 {
				onBack := rest &^ (used[back*words+w] | putt[back*words+w])
				used[back*words+w] |= onBack
				planned = planLRC(planned, count, w, onBack, circuit.LRC{Data: q, Stab: back})
				got |= onBack
			}
			lp.plannedWord[i] = got
			lp.planLanes[w] |= got
		}
	}
	lp.planned = planned
	if lp.usePUTT {
		copy(putt, used)
	}
	if len(planned) == 0 {
		return lp.plans
	}
	if cap(lp.arena) < len(planned) {
		lp.arena = make([]circuit.LRC, len(planned))
	}
	arena := lp.arena[:len(planned)]
	// Hand each planning lane its stretch of the arena, and turn its count
	// into the arena slot its first LRC goes to.
	off := int32(0)
	for w, m := range lp.planLanes {
		for ; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			end := off + count[i]
			lp.plans[i].LRCs = arena[off:end:end]
			count[i], off = off, end
		}
	}
	for _, p := range planned {
		arena[count[p.lane]] = p.lrc
		count[p.lane]++
	}
	return lp.plans
}

// planLRC appends lrc to planned for every lane of sub-word w set in m and
// counts it in the lane's entry of count.
func planLRC(planned []laneLRC, count []int32, w int, m uint64, lrc circuit.LRC) []laneLRC {
	for ; m != 0; m &= m - 1 {
		i := w<<6 | bits.TrailingZeros64(m)
		planned = append(planned, laneLRC{int32(i), lrc})
		count[i]++
	}
	return planned
}

// PlannedWords returns all planned-lane words of data qubit q, one per
// 64-lane sub-word (aliased; valid until the next PlanRound).
func (lp *LanePolicies) PlannedWords(q int) []uint64 {
	return lp.plannedWord[q*lp.words : (q+1)*lp.words]
}

// LRCTotal returns the number of LRCs in the current round's plans, summed
// over active lanes.
func (lp *LanePolicies) LRCTotal() int64 { return int64(len(lp.planned)) }

// Observe updates the active lanes' Leakage Tracking Table from the round's
// packed classical record: detection events (and, for ERASER+M, the
// multi-level is-leak planes) for ERASER, ground-truth leakage for Optimal.
func (lp *LanePolicies) Observe(info LaneRoundInfo) {
	l, words := lp.layout, lp.words
	switch lp.kind {
	case PolicyOptimal:
		for q := 0; q < l.NumData; q++ {
			for w := 0; w < words; w++ {
				i := q*words + w
				lp.ltt[i] = lp.ltt[i]&^info.Active[w] | info.TrueLeakedData[i]&info.Active[w]
			}
		}
	case PolicyEraser, PolicyEraserM:
		ml := info.MLParityLeak
		if lp.kind != PolicyEraserM {
			ml = nil
		}
		// Sub-words past the last active one (absent from a partial block)
		// add nothing, so the walk stops short of them.
		live := words
		for live > 0 && info.Active[live-1] == 0 {
			live--
		}
		for q := 0; q < l.NumData; q++ {
			// one and two collect, per sub-word, the lanes with at least one
			// and at least two flipped neighboring checks: the threshold is
			// 1 or 2, so these two words decide the rule. mlLeak collects
			// ERASER+M's |L> classifications in the same pass.
			var one, two, mlLeak [circuit.MaskWords]uint64
			for _, s := range l.DataStabs[q] {
				for w, e := range info.Events[s*words : s*words+live] {
					two[w] |= one[w] & e
					one[w] |= e
				}
				if ml != nil {
					for w, m := range ml[s*words : s*words+live] {
						mlLeak[w] |= m
					}
				}
			}
			spec := &one
			if lp.threshold[q] == 2 {
				spec = &two
			}
			// Only active lanes speculate. A qubit that just had an LRC is
			// cleared and not re-speculated from the syndrome that LRC
			// produced (Section 4.2.1).
			for w := 0; w < words; w++ {
				i := q*words + w
				lp.ltt[i] = (lp.ltt[i] | (spec[w]|mlLeak[w])&info.Active[w]) &^ lp.plannedWord[i]
			}
		}
	}
}
