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
// was built with. A 64-lane planner (words = 1) therefore consumes the
// single-word engine's outputs unchanged.
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

	plannedWord []uint64 // [NumData*words] lanes scheduling an LRC on q
	lrcTotal    int64    // LRCs planned this round, summed over active lanes
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
	ref := NewPolicy(k, l, proto)
	lp := &LanePolicies{
		kind:        k,
		layout:      l,
		name:        ref.Name(),
		lanes:       lanes,
		words:       words,
		plans:       make([]circuit.Plan, lanes),
		plannedWord: make([]uint64, l.NumData*words),
	}
	lp.threshold = make([]int, l.NumData)
	for q := range lp.threshold {
		lp.threshold[q] = analytic.SpeculationThreshold(len(l.DataStabs[q]))
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
	lp.lrcTotal = 0
}

// clearPlans empties the plans of the lanes that scheduled LRCs last round,
// keeping each lane's LRC buffer for reuse.
func (lp *LanePolicies) clearPlans() {
	for w, m := range lp.planLanes {
		for ; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			lp.plans[i].LRCs = lp.plans[i].LRCs[:0]
		}
	}
	lp.planLanes = circuit.LaneMask{}
}

// PlanRound returns the per-lane plans for the upcoming round (aliased;
// valid until the next call). Inactive lanes get empty plans.
func (lp *LanePolicies) PlanRound(round int, active circuit.LaneMask) []circuit.Plan {
	lp.clearPlans()
	clear(lp.used)
	lp.lrcTotal = 0
	l, words := lp.layout, lp.words
	for q := 0; q < l.NumData; q++ {
		prim, back := l.SwapPrimary[q]*words, -1
		if l.SwapBackup[q] >= 0 {
			back = l.SwapBackup[q] * words
		}
		for w := 0; w < words; w++ {
			req := lp.ltt[q*words+w] & active[w]
			if req == 0 {
				lp.plannedWord[q*words+w] = 0
				continue
			}
			// Each lane takes the primary parity qubit when it is neither
			// taken this round nor cooling down in the PUTT, else the backup
			// under the same rule; lanes losing both retry next round.
			onPrim := req &^ (lp.used[prim+w] | lp.putt[prim+w])
			lp.used[prim+w] |= onPrim
			lp.appendLRCs(w, onPrim, circuit.LRC{Data: q, Stab: l.SwapPrimary[q]})
			got := onPrim
			if rest := req &^ onPrim; rest != 0 && back >= 0 {
				onBack := rest &^ (lp.used[back+w] | lp.putt[back+w])
				lp.used[back+w] |= onBack
				lp.appendLRCs(w, onBack, circuit.LRC{Data: q, Stab: l.SwapBackup[q]})
				got |= onBack
			}
			lp.plannedWord[q*words+w] = got
			lp.planLanes[w] |= got
			lp.lrcTotal += int64(bits.OnesCount64(got))
		}
	}
	if lp.usePUTT {
		copy(lp.putt, lp.used)
	}
	return lp.plans
}

// appendLRCs appends lrc to the plan of every lane of sub-word w set in m.
// Data qubits are visited in ascending order, so each lane's LRCs come out
// in the order the scalar DLI emits them.
func (lp *LanePolicies) appendLRCs(w int, m uint64, lrc circuit.LRC) {
	for ; m != 0; m &= m - 1 {
		i := w<<6 | bits.TrailingZeros64(m)
		lp.plans[i].LRCs = append(lp.plans[i].LRCs, lrc)
	}
}

// PlannedWords returns all planned-lane words of data qubit q, one per
// 64-lane sub-word (aliased; valid until the next PlanRound).
func (lp *LanePolicies) PlannedWords(q int) []uint64 {
	return lp.plannedWord[q*lp.words : (q+1)*lp.words]
}

// LRCTotal returns the number of LRCs in the current round's plans, summed
// over active lanes.
func (lp *LanePolicies) LRCTotal() int64 { return lp.lrcTotal }

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
		for q := 0; q < l.NumData; q++ {
			stabs, k := l.DataStabs[q], lp.threshold[q]
			for w := 0; w < words; w++ {
				// atLeast[j] collects the lanes with more than j flipped
				// neighboring checks so far: a carry chain that stops at the
				// threshold, since only "at least k" matters. A sub-word with
				// no active lane (absent from a partial block) skips it.
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
				// A qubit that just had an LRC is cleared and not
				// re-speculated from the syndrome that LRC produced
				// (Section 4.2.1).
				i := q*words + w
				lp.ltt[i] = (lp.ltt[i] | (atLeast[k-1]|mlLeak)&info.Active[w]) &^ lp.plannedWord[i]
			}
		}
	}
}
