package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/surfacecode"
)

// RoundInfo is the classical information a policy sees after each syndrome
// extraction round.
type RoundInfo struct {
	// Round is the 1-based index of the round just executed.
	Round int
	// Events holds the detection events per stabilizer.
	Events []uint8
	// MLParity is the multi-level readout classification of each
	// stabilizer's measured wire (meaningful only to ERASER+M).
	MLParity []sim.MLClass
	// TrueLeakedData is the simulator's ground-truth per-data-qubit leakage
	// at the end of the round. Only the idealized Optimal policy reads it.
	TrueLeakedData []bool
}

// Policy decides, before every syndrome extraction round, which data qubits
// receive leakage removal and with which parity qubits.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset prepares the policy for a new shot.
	Reset()
	// PlanRound returns the LRC plan for the upcoming round (1-based).
	PlanRound(round int) circuit.Plan
	// Observe delivers the classical record of the round just executed.
	Observe(info RoundInfo)
	// PlannedLRC reports whether data qubit q received an LRC in the most
	// recently planned round; the harness uses it for speculation-accuracy
	// accounting.
	PlannedLRC(q int) bool
}

// Kind enumerates the policies evaluated in the paper.
type Kind uint8

const (
	// PolicyNone never schedules leakage removal (the "No LRC" baseline).
	PolicyNone Kind = iota
	// PolicyAlways is the state-of-the-art static schedule: a dense LRC
	// round every other round, with the leftover qubit carried over.
	PolicyAlways
	// PolicyEraser is adaptive scheduling from syndrome speculation.
	PolicyEraser
	// PolicyEraserM adds multi-level readout (ERASER+M).
	PolicyEraserM
	// PolicyOptimal is the idealized oracle: an LRC on exactly the qubits
	// that are actually leaked, as soon as they leak.
	PolicyOptimal
)

// String names the policy kind.
func (k Kind) String() string {
	switch k {
	case PolicyNone:
		return "NoLRC"
	case PolicyAlways:
		return "Always-LRCs"
	case PolicyEraser:
		return "ERASER"
	case PolicyEraserM:
		return "ERASER+M"
	case PolicyOptimal:
		return "Optimal"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NewPolicy constructs the policy of the given kind using the given
// leakage-removal protocol (SWAP LRCs in the main text, DQLR in Appendix
// A.2).
func NewPolicy(k Kind, l *surfacecode.Layout, proto circuit.Protocol) Policy {
	switch k {
	case PolicyNone, PolicyAlways:
		return &static{kind: k, proto: proto, sched: sharedSchedule(k, l, proto)}
	case PolicyEraser:
		return NewEraser(l, false, proto)
	case PolicyEraserM:
		return NewEraser(l, true, proto)
	case PolicyOptimal:
		return newOptimal(l, proto)
	default:
		panic(fmt.Sprintf("core: unknown policy kind %d", k))
	}
}

// PolicyName names the policy of kind k under protocol proto in reports:
// the kind's name, with DQLR marked on every kind that schedules LRCs
// (Always-LRCs under DQLR is plain "DQLR"). It is the one source of the
// names of the scalar policies, the lane planner and experiment results.
func PolicyName(k Kind, proto circuit.Protocol) string {
	switch {
	case k > PolicyOptimal:
		panic(fmt.Sprintf("core: unknown policy kind %d", k))
	case k == PolicyNone || proto != circuit.ProtocolDQLR:
		return k.String()
	case k == PolicyAlways:
		return "DQLR"
	default:
		return k.String() + "-DQLR"
	}
}

// ---------------------------------------------------------- NoLRC, Always --

// static runs a schedule fixed by the round number alone, from the shared
// compiled plans of its distance, kind and protocol.
//
// NoLRC never schedules leakage removal. Always is the state-of-the-art
// static policy (Section 2.4, Figure 3): round 1 runs without LRCs so every
// parity qubit is flushed; even rounds swap the d*d-1 matched data qubits;
// odd rounds from round 3 on carry the single leftover data qubit's LRC.
// With DQLR the dense protocol runs every round (Appendix A.2), alternating
// in the leftover qubit.
type static struct {
	kind  Kind
	proto circuit.Protocol
	sched *schedule
	cur   int // the index of the plan PlanRound returned last
}

func (s *static) Name() string      { return PolicyName(s.kind, s.proto) }
func (s *static) Reset()            {}
func (s *static) Observe(RoundInfo) {}

func (s *static) PlanRound(round int) circuit.Plan {
	switch {
	case s.kind == PolicyNone:
		s.cur = planEmpty
	case round%2 == 0:
		s.cur = planDense
	case round >= 3 || s.proto == circuit.ProtocolDQLR:
		// DQLR runs every round; the leftover qubit still alternates since
		// there are d^2 data qubits and only d^2-1 parity qubits.
		s.cur = planCarry
	default:
		s.cur = planEmpty
	}
	return s.sched.plans[s.cur]
}

func (s *static) PlannedLRC(q int) bool { return s.sched.planned[s.cur][q] }

// The plans of a schedule: the empty plan, Always's dense round (every
// matched data qubit) and its carry round (the leftover qubit, on top of
// the dense round under DQLR).
const (
	planEmpty = iota
	planDense
	planCarry
	numPlans
)

// schedule is the compiled plans of one static policy on one layout, each
// with the data qubits it plans. NoLRC fills only the empty plan. A schedule
// is never written after construction.
type schedule struct {
	plans   [numPlans]circuit.Plan
	planned [numPlans][]bool
}

// schedules holds the schedules of the shared layouts, slot [(d-3)/2][i]
// for the odd distances d in [3, surfacecode.MaxDistance], with i = 0 for
// NoLRC, which ignores the protocol, and 1 + protocol for Always. Each is
// built on first use.
var schedules [(surfacecode.MaxDistance - 1) / 2][3]atomic.Pointer[schedule]

// sharedSchedule returns the schedule of a static kind on l. On the shared
// layout of l's distance, every caller gets the one kept for (distance,
// kind, protocol); concurrent first calls may build it twice, and every
// caller gets the one that landed first. A private layout (a patched copy)
// or an unknown protocol gets a schedule of its own.
func sharedSchedule(k Kind, l *surfacecode.Layout, proto circuit.Protocol) *schedule {
	if shared, err := surfacecode.New(l.Distance); err != nil || shared != l || proto > circuit.ProtocolDQLR {
		return buildSchedule(k, l, proto)
	}
	i := 0
	if k == PolicyAlways {
		i = 1 + int(proto)
	}
	slot := &schedules[(l.Distance-3)/2][i]
	if s := slot.Load(); s != nil {
		return s
	}
	slot.CompareAndSwap(nil, buildSchedule(k, l, proto))
	return slot.Load()
}

// buildSchedule compiles a static kind's plans on l.
func buildSchedule(k Kind, l *surfacecode.Layout, proto circuit.Protocol) *schedule {
	var lrcs [numPlans][]circuit.LRC
	n := 1
	if k == PolicyAlways {
		n = numPlans
		for q := 0; q < l.NumData; q++ {
			if s := l.AlwaysAssign[q]; s >= 0 {
				lrcs[planDense] = append(lrcs[planDense], circuit.LRC{Data: q, Stab: s})
			}
		}
		if proto == circuit.ProtocolDQLR {
			lrcs[planCarry] = slices.Clone(lrcs[planDense])
		}
		if q := l.Leftover; q >= 0 {
			lrcs[planCarry] = append(lrcs[planCarry], circuit.LRC{Data: q, Stab: l.SwapPrimary[q]})
		}
	}
	s := &schedule{}
	for i := range n {
		plan := circuit.Plan{LRCs: lrcs[i]}
		if k == PolicyAlways {
			plan.Protocol = proto
		}
		s.plans[i] = circuit.Compile(l, plan)
		s.planned[i] = make([]bool, l.NumData)
		for _, lrc := range lrcs[i] {
			s.planned[i][lrc.Data] = true
		}
	}
	return s
}

// --------------------------------------------------------------- ERASER --

// Eraser is the adaptive policy: LSB speculation feeding DLI scheduling.
// With multiLevel it becomes ERASER+M, also enabling the QSG's conditional
// swap-back.
type Eraser struct {
	layout     *surfacecode.Layout
	lsb        *LSB
	dli        *DLI
	multiLevel bool
	proto      circuit.Protocol

	planned []bool // data qubits given an LRC in the current plan
	pairs   []circuit.LRC
}

// NewEraser builds ERASER (multiLevel=false) or ERASER+M (true).
func NewEraser(l *surfacecode.Layout, multiLevel bool, proto circuit.Protocol) *Eraser {
	e := &Eraser{
		layout:     l,
		lsb:        NewLSB(l, multiLevel),
		dli:        NewDLI(l),
		multiLevel: multiLevel,
		proto:      proto,
		planned:    make([]bool, l.NumData),
	}
	if proto == circuit.ProtocolDQLR {
		// DQLR resets the parity qubit inside the protocol, so the PUTT
		// cooldown is unnecessary.
		e.dli.SetUsePUTT(false)
	}
	return e
}

// LSB exposes the speculation block (ablation benchmarks tune it).
func (e *Eraser) LSB() *LSB { return e.lsb }

// DLI exposes the insertion block (ablation benchmarks tune it).
func (e *Eraser) DLI() *DLI { return e.dli }

// Name reports ERASER / ERASER+M with a protocol suffix for DQLR.
func (e *Eraser) Name() string {
	if e.multiLevel {
		return PolicyName(PolicyEraserM, e.proto)
	}
	return PolicyName(PolicyEraser, e.proto)
}

// Reset clears the LTT and PUTT.
func (e *Eraser) Reset() {
	e.lsb.Reset()
	e.dli.Reset()
	for i := range e.planned {
		e.planned[i] = false
	}
}

// PlanRound schedules LRCs for every currently speculated data qubit that
// can be paired with an available parity qubit.
func (e *Eraser) PlanRound(round int) circuit.Plan {
	e.pairs = e.dli.Schedule(e.lsb.Speculated(), e.pairs[:0])
	for i := range e.planned {
		e.planned[i] = false
	}
	for _, lrc := range e.pairs {
		e.planned[lrc.Data] = true
	}
	return circuit.Plan{
		LRCs:       e.pairs,
		Protocol:   e.proto,
		CondReturn: e.multiLevel && e.proto == circuit.ProtocolSwap,
	}
}

// Observe feeds the round's detection events (and, for ERASER+M, the
// multi-level classifications) to the LSB.
func (e *Eraser) Observe(info RoundInfo) {
	var ml []sim.MLClass
	if e.multiLevel {
		ml = info.MLParity
	}
	e.lsb.Observe(info.Events, ml, e.planned)
}

// PlannedLRC reports whether q had an LRC in the current plan.
func (e *Eraser) PlannedLRC(q int) bool { return e.planned[q] }

// -------------------------------------------------------------- Optimal --

// optimal is the idealized scheduling policy of Section 3.2: it reads the
// simulator's ground-truth leakage and schedules an LRC on exactly the
// leaked data qubits in the next round. It bypasses the PUTT (an idealized
// control processor) but still resolves parity conflicts through the SWAP
// Lookup Table since two data qubits can never swap with the same parity
// qubit in the same round.
type optimal struct {
	layout  *surfacecode.Layout
	dli     *DLI
	proto   circuit.Protocol
	truth   []bool
	planned []bool
	pairs   []circuit.LRC
}

func newOptimal(l *surfacecode.Layout, proto circuit.Protocol) *optimal {
	o := &optimal{
		layout:  l,
		dli:     NewDLI(l),
		proto:   proto,
		truth:   make([]bool, l.NumData),
		planned: make([]bool, l.NumData),
	}
	o.dli.SetUsePUTT(false)
	return o
}

func (o *optimal) Name() string { return PolicyName(PolicyOptimal, o.proto) }

func (o *optimal) Reset() {
	o.dli.Reset()
	for i := range o.truth {
		o.truth[i] = false
		o.planned[i] = false
	}
}

func (o *optimal) PlanRound(round int) circuit.Plan {
	o.pairs = o.dli.Schedule(o.truth, o.pairs[:0])
	for i := range o.planned {
		o.planned[i] = false
	}
	for _, lrc := range o.pairs {
		o.planned[lrc.Data] = true
	}
	return circuit.Plan{LRCs: o.pairs, Protocol: o.proto}
}

func (o *optimal) Observe(info RoundInfo) {
	copy(o.truth, info.TrueLeakedData)
}

func (o *optimal) PlannedLRC(q int) bool { return o.planned[q] }
