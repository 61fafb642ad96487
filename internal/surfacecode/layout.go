// Package surfacecode models the rotated surface code lattice used throughout
// the ERASER reproduction: data-qubit and parity-qubit placement, X/Z
// stabilizer supports, the four-step CNOT extraction schedule, the logical
// operators, and the data-to-parity SWAP assignments needed by leakage
// reduction circuits (both the static Always-LRC matching and the
// primary/backup SWAP lookup table used by ERASER's Dynamic LRC Insertion).
//
// Geometry convention: a distance-d rotated code has d*d data qubits on a
// d-by-d grid (row r, column c, both in [0, d)) and d*d-1 parity qubits, one
// per stabilizer plaquette. Plaquette (i, j) with i, j in [0, d] covers the
// up-to-four data qubits (i-1, j-1), (i-1, j), (i, j-1), (i, j). Plaquettes
// with i+j even measure Z stabilizers, the rest X stabilizers; weight-2
// X stabilizers live on the top and bottom boundaries and weight-2
// Z stabilizers on the left and right boundaries. The logical Z operator is
// the top row of data qubits, so undetected X chains connecting the top and
// bottom boundaries are logical errors.
package surfacecode

import (
	"fmt"
	"sync/atomic"
)

// Kind distinguishes the two stabilizer types of the surface code.
type Kind uint8

const (
	// KindZ marks a Z stabilizer, which detects X (bit-flip) errors.
	KindZ Kind = iota
	// KindX marks an X stabilizer, which detects Z (phase-flip) errors.
	KindX
)

// String returns "Z" or "X".
func (k Kind) String() string {
	if k == KindZ {
		return "Z"
	}
	return "X"
}

// ExtractionSteps is the number of CNOT time steps in one syndrome
// extraction round of the rotated surface code.
const ExtractionSteps = 4

// Stabilizer describes one parity check of the code.
type Stabilizer struct {
	// Index is the stabilizer's position in Layout.Stabilizers.
	Index int
	// Kind is KindZ or KindX.
	Kind Kind
	// Ancilla is the qubit id of the parity (ancilla) qubit.
	Ancilla int
	// Row, Col are the plaquette coordinates (i, j).
	Row, Col int
	// Steps holds the data qubit id touched at each of the four CNOT time
	// steps, or -1 when the plaquette has no data qubit at that corner
	// (boundary stabilizers keep their step positions so the global schedule
	// stays conflict-free).
	Steps [ExtractionSteps]int
	// Data lists the existing data-qubit neighbors (2 or 4 of them).
	Data []int
}

// Weight returns the number of data qubits in the stabilizer's support.
func (s *Stabilizer) Weight() int { return len(s.Data) }

// Layout describes a distance-d rotated surface code.
//
// New returns one Layout per distance, and every caller of that distance
// shares it, across goroutines and for the life of the process. So nobody
// writes to a Layout or to a slice it holds: a caller that needs a patched
// layout copies the struct and clones the slices it changes first.
type Layout struct {
	// Distance is the code distance d (odd, >= 3).
	Distance int
	// NumData is d*d, NumParity is d*d-1, NumQubits is 2*d*d-1.
	NumData, NumParity, NumQubits int

	// Stabilizers lists all parity checks; index into it is the "stabilizer
	// index" used by syndromes, detection events and the ERASER tables.
	Stabilizers []Stabilizer

	// DataRow and DataCol give the grid position of each data qubit id.
	DataRow, DataCol []int

	// DataStabs lists, for every data qubit, the indices of the stabilizers
	// (both kinds) whose support contains it: the "neighboring parity
	// qubits" inspected by the Leakage Speculation Block.
	DataStabs [][]int

	// DataZStabs and DataXStabs restrict DataStabs by stabilizer kind; they
	// drive matching-graph construction.
	DataZStabs, DataXStabs [][]int

	// ZLogicalSupport is the data-qubit support of the logical Z operator
	// (the top row). An X error on one of these qubits flips the logical
	// measurement outcome of a memory-Z experiment.
	ZLogicalSupport []int

	// XLogicalSupport is the data-qubit support of the logical X operator
	// (the left column), used by memory-X experiments.
	XLogicalSupport []int

	// AlwaysAssign maps each data qubit to the stabilizer it swaps with
	// during the dense round of Always-LRC scheduling, or -1 for the single
	// leftover qubit whose LRC is carried into the following round.
	AlwaysAssign []int
	// Leftover is the data qubit left unmatched by AlwaysAssign.
	Leftover int

	// SwapPrimary and SwapBackup form the SWAP Lookup Table used by Dynamic
	// LRC Insertion: a pre-determined primary and backup parity qubit
	// (stabilizer index) for every data qubit. SwapBackup entries may be -1
	// when a data qubit has only one neighbor left to choose from.
	SwapPrimary, SwapBackup []int

	zIndexOf []int // stabilizer index -> dense Z-stabilizer ordinal, -1 for X
	xIndexOf []int // stabilizer index -> dense X-stabilizer ordinal, -1 for Z
	numZ     int
	numX     int
}

// MaxDistance is the largest code distance New accepts. Layouts are cheap
// and built once per distance, but everything sized by one grows fast: a
// decoder's all-pairs table holds (d²/2)² entries. At d = 25 one MWPM table
// took 46 ms and 2.3 MB to build on a 2-vCPU Xeon, against 1 ms and 0.2 MB
// at d = 11, where the paper stops.
const MaxDistance = 25

// CheckDistance is the one home of the distance rule: an odd integer in
// [3, MaxDistance]. New applies it before allocating anything; front ends
// (CLI flags, service requests, manifests, device profiles) reach it
// through New or directly.
func CheckDistance(d int) error {
	if d < 3 || d > MaxDistance || d%2 == 0 {
		return fmt.Errorf("distance %d is not an odd integer in [3, %d]", d, MaxDistance)
	}
	return nil
}

// layouts holds the shared layout of each odd distance in [3, MaxDistance],
// slot (d-3)/2, built on first use.
var layouts [(MaxDistance - 1) / 2]atomic.Pointer[Layout]

// New returns the shared layout of a code distance that passes
// CheckDistance, building it on first use. Concurrent first calls may build
// it twice; construction is deterministic, and every caller gets the one
// that landed first.
func New(d int) (*Layout, error) {
	if err := CheckDistance(d); err != nil {
		return nil, fmt.Errorf("surfacecode: %w", err)
	}
	slot := &layouts[(d-3)/2]
	if l := slot.Load(); l != nil {
		return l, nil
	}
	slot.CompareAndSwap(nil, build(d))
	return slot.Load(), nil
}

// build constructs the layout of a valid distance d.
func build(d int) *Layout {
	l := &Layout{
		Distance:  d,
		NumData:   d * d,
		NumParity: d*d - 1,
		NumQubits: 2*d*d - 1,
	}
	l.DataRow = make([]int, l.NumData)
	l.DataCol = make([]int, l.NumData)
	for q := 0; q < l.NumData; q++ {
		l.DataRow[q] = q / d
		l.DataCol[q] = q % d
	}

	// Enumerate plaquettes. Ancilla qubit ids follow the data qubits.
	nextAncilla := l.NumData
	for i := 0; i <= d; i++ {
		for j := 0; j <= d; j++ {
			kind := KindX
			if (i+j)%2 == 0 {
				kind = KindZ
			}
			if !plaquetteExists(d, i, j, kind) {
				continue
			}
			s := Stabilizer{
				Index:   len(l.Stabilizers),
				Kind:    kind,
				Ancilla: nextAncilla,
				Row:     i,
				Col:     j,
			}
			nextAncilla++
			// Corner data qubits in schedule order. X stabilizers walk
			// NW, NE, SW, SE ("Z" pattern); Z stabilizers walk NW, SW, NE,
			// SE ("S" pattern). The two patterns together are conflict-free
			// and avoid weight-growing hook errors.
			corners := [4][2]int{}
			if kind == KindX {
				corners = [4][2]int{{i - 1, j - 1}, {i - 1, j}, {i, j - 1}, {i, j}}
			} else {
				corners = [4][2]int{{i - 1, j - 1}, {i, j - 1}, {i - 1, j}, {i, j}}
			}
			for step, rc := range corners {
				r, c := rc[0], rc[1]
				if r < 0 || r >= d || c < 0 || c >= d {
					s.Steps[step] = -1
					continue
				}
				q := r*d + c
				s.Steps[step] = q
				s.Data = append(s.Data, q)
			}
			l.Stabilizers = append(l.Stabilizers, s)
		}
	}
	if len(l.Stabilizers) != l.NumParity {
		panic(fmt.Sprintf("surfacecode: built %d stabilizers for d=%d, want %d",
			len(l.Stabilizers), d, l.NumParity))
	}

	// Adjacency from data qubits to stabilizers.
	l.DataStabs = make([][]int, l.NumData)
	l.DataZStabs = make([][]int, l.NumData)
	l.DataXStabs = make([][]int, l.NumData)
	for _, s := range l.Stabilizers {
		for _, q := range s.Data {
			l.DataStabs[q] = append(l.DataStabs[q], s.Index)
			if s.Kind == KindZ {
				l.DataZStabs[q] = append(l.DataZStabs[q], s.Index)
			} else {
				l.DataXStabs[q] = append(l.DataXStabs[q], s.Index)
			}
		}
	}

	// Logical Z support: the top row of data qubits; logical X: the left
	// column. They intersect in exactly one qubit (the top-left corner), so
	// the operators anticommute as required.
	for c := 0; c < d; c++ {
		l.ZLogicalSupport = append(l.ZLogicalSupport, l.DataID(0, c))
	}
	for r := 0; r < d; r++ {
		l.XLogicalSupport = append(l.XLogicalSupport, l.DataID(r, 0))
	}

	// Dense per-kind ordinals for the decoder.
	l.zIndexOf = make([]int, l.NumParity)
	l.xIndexOf = make([]int, l.NumParity)
	for i := range l.zIndexOf {
		l.zIndexOf[i] = -1
		l.xIndexOf[i] = -1
	}
	for _, s := range l.Stabilizers {
		if s.Kind == KindZ {
			l.zIndexOf[s.Index] = l.numZ
			l.numZ++
		} else {
			l.xIndexOf[s.Index] = l.numX
			l.numX++
		}
	}

	l.buildSwapTables()
	return l
}

// MustNew is New but panics on error; it is convenient for examples, tests
// and benchmarks where the distance is a compile-time constant.
func MustNew(d int) *Layout {
	l, err := New(d)
	if err != nil {
		panic(err)
	}
	return l
}

func plaquetteExists(d, i, j int, kind Kind) bool {
	onTop, onBottom := i == 0, i == d
	onLeft, onRight := j == 0, j == d
	switch {
	case (onTop || onBottom) && (onLeft || onRight):
		return false // corner, would be weight 1
	case onTop || onBottom:
		return kind == KindX // top/bottom boundary hosts X dominoes
	case onLeft || onRight:
		return kind == KindZ // left/right boundary hosts Z dominoes
	default:
		return true
	}
}

// NumZ returns the number of Z stabilizers, (d*d-1)/2.
func (l *Layout) NumZ() int { return l.numZ }

// NumX returns the number of X stabilizers, (d*d-1)/2.
func (l *Layout) NumX() int { return l.numX }

// NumKind returns NumZ or NumX.
func (l *Layout) NumKind(k Kind) int {
	if k == KindZ {
		return l.numZ
	}
	return l.numX
}

// ZOrdinal maps a stabilizer index to its dense ordinal among Z stabilizers,
// or -1 for X stabilizers.
func (l *Layout) ZOrdinal(stab int) int { return l.zIndexOf[stab] }

// XOrdinal maps a stabilizer index to its dense ordinal among X stabilizers,
// or -1 for Z stabilizers.
func (l *Layout) XOrdinal(stab int) int { return l.xIndexOf[stab] }

// KindOrdinal maps a stabilizer index to its dense ordinal among the given
// kind, or -1 when the stabilizer is of the other kind.
func (l *Layout) KindOrdinal(k Kind, stab int) int {
	if k == KindZ {
		return l.zIndexOf[stab]
	}
	return l.xIndexOf[stab]
}

// DataKindStabs returns the stabilizers of the given kind adjacent to a data
// qubit.
func (l *Layout) DataKindStabs(k Kind, q int) []int {
	if k == KindZ {
		return l.DataZStabs[q]
	}
	return l.DataXStabs[q]
}

// LogicalSupport returns the data-qubit support of the logical operator
// measured by a memory experiment in the given basis: the logical Z (top
// row) for KindZ, the logical X (left column) for KindX.
func (l *Layout) LogicalSupport(k Kind) []int {
	if k == KindZ {
		return l.ZLogicalSupport
	}
	return l.XLogicalSupport
}

// IsData reports whether qubit id q is a data qubit.
func (l *Layout) IsData(q int) bool { return q < l.NumData }

// DataID returns the qubit id of the data qubit at (row, col).
func (l *Layout) DataID(row, col int) int { return row*l.Distance + col }

// SharedData returns the data qubits in the support of both stabilizers.
func (l *Layout) SharedData(a, b int) []int {
	var out []int
	for _, q := range l.Stabilizers[a].Data {
		for _, p := range l.Stabilizers[b].Data {
			if q == p {
				out = append(out, q)
			}
		}
	}
	return out
}

// buildSwapTables computes the Always-LRC data-to-parity matching and the
// primary/backup SWAP Lookup Table.
func (l *Layout) buildSwapTables() {
	match := maximumBipartiteMatching(l.NumData, l.NumParity, l.DataStabs)
	l.AlwaysAssign = match
	l.Leftover = -1
	for q, s := range match {
		if s == -1 {
			l.Leftover = q
		}
	}

	l.SwapPrimary = make([]int, l.NumData)
	l.SwapBackup = make([]int, l.NumData)
	// load spreads backup choices so that adjacent data qubits prefer
	// different backups, reducing DLI conflicts.
	load := make([]int, l.NumParity)
	for q := 0; q < l.NumData; q++ {
		primary := match[q]
		if primary == -1 {
			primary = l.DataStabs[q][0]
		}
		l.SwapPrimary[q] = primary
		l.SwapBackup[q] = -1
		best, bestLoad := -1, 1<<30
		for _, s := range l.DataStabs[q] {
			if s == primary {
				continue
			}
			if load[s] < bestLoad {
				best, bestLoad = s, load[s]
			}
		}
		if best >= 0 {
			l.SwapBackup[q] = best
			load[best]++
		}
	}
}
