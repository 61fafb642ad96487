package surfacecode

import (
	"sync"
	"testing"
	"testing/quick"
)

var testDistances = []int{3, 5, 7, 9, 11}

func TestNewRejectsBadDistances(t *testing.T) {
	for _, d := range []int{0, 1, 2, 4, 6, -3, MaxDistance + 1, MaxDistance + 2, 1001, 100000001} {
		if _, err := New(d); err == nil {
			t.Errorf("New(%d) should fail", d)
		}
	}
	if _, err := New(MaxDistance); err != nil {
		t.Errorf("New(MaxDistance): %v", err)
	}
}

// TestNewSharesOneLayoutPerDistance: New returns the same layout for the
// same distance and a distinct one per distance.
func TestNewSharesOneLayoutPerDistance(t *testing.T) {
	seen := map[*Layout]int{}
	for d := 3; d <= MaxDistance; d += 2 {
		l := MustNew(d)
		if again := MustNew(d); again != l || l.Distance != d {
			t.Fatalf("d=%d: New returned %p then %p, with distance %d", d, l, again, l.Distance)
		}
		if prev, ok := seen[l]; ok {
			t.Fatalf("d=%d shares its layout with d=%d", d, prev)
		}
		seen[l] = d
	}
}

// TestNewConcurrentFirstCalls: goroutines racing to build a distance's
// layout may each build one, but all of them get the one that landed first.
func TestNewConcurrentFirstCalls(t *testing.T) {
	const d, callers = 9, 4
	slot := &layouts[(d-3)/2]
	saved := slot.Swap(nil) // empty the slot; the old layout goes back after
	defer slot.Store(saved)
	got := make([]*Layout, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = MustNew(d)
		}()
	}
	wg.Wait()
	for i, l := range got {
		if l != slot.Load() {
			t.Fatalf("caller %d got %p, the slot holds %p", i, l, slot.Load())
		}
	}
}

func TestQubitCounts(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		if l.NumData != d*d {
			t.Errorf("d=%d: NumData = %d", d, l.NumData)
		}
		if l.NumParity != d*d-1 {
			t.Errorf("d=%d: NumParity = %d", d, l.NumParity)
		}
		if l.NumQubits != 2*d*d-1 {
			t.Errorf("d=%d: NumQubits = %d", d, l.NumQubits)
		}
		if len(l.Stabilizers) != l.NumParity {
			t.Errorf("d=%d: %d stabilizers", d, len(l.Stabilizers))
		}
		if l.NumZ() != (d*d-1)/2 {
			t.Errorf("d=%d: NumZ = %d", d, l.NumZ())
		}
	}
}

func TestStabilizerWeights(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		w2, w4 := 0, 0
		for _, s := range l.Stabilizers {
			switch s.Weight() {
			case 2:
				w2++
			case 4:
				w4++
			default:
				t.Fatalf("d=%d: stabilizer %d has weight %d", d, s.Index, s.Weight())
			}
		}
		// 2(d-1) boundary dominoes, (d-1)^2 bulk plaquettes.
		if w2 != 2*(d-1) {
			t.Errorf("d=%d: %d weight-2 stabilizers, want %d", d, w2, 2*(d-1))
		}
		if w4 != (d-1)*(d-1) {
			t.Errorf("d=%d: %d weight-4 stabilizers, want %d", d, w4, (d-1)*(d-1))
		}
	}
}

func TestDataNeighborCounts(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		corners := 0
		for q := 0; q < l.NumData; q++ {
			n := len(l.DataStabs[q])
			if n < 2 || n > 4 {
				t.Fatalf("d=%d: data qubit %d has %d parity neighbors", d, q, n)
			}
			if n == 2 {
				corners++
			}
			// Every data qubit participates in one or two stabilizers of
			// each kind.
			nz, nx := len(l.DataZStabs[q]), len(l.DataXStabs[q])
			if nz < 1 || nz > 2 || nx < 1 || nx > 2 {
				t.Fatalf("d=%d: data qubit %d has %d Z and %d X neighbors", d, q, nz, nx)
			}
		}
		if corners != 4 {
			t.Errorf("d=%d: %d corner data qubits, want 4", d, corners)
		}
	}
}

// TestStabilizerCommutation checks the defining CSS property: every X
// stabilizer overlaps every Z stabilizer in an even number of data qubits.
func TestStabilizerCommutation(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		for i := range l.Stabilizers {
			for j := range l.Stabilizers {
				if l.Stabilizers[i].Kind == l.Stabilizers[j].Kind {
					continue
				}
				if n := len(l.SharedData(i, j)); n%2 != 0 {
					t.Fatalf("d=%d: stabilizers %d and %d share %d qubits", d, i, j, n)
				}
			}
		}
	}
}

// TestScheduleConflictFree checks that at every CNOT time step no data qubit
// participates in more than one gate (the Tomita-Svore two-pattern schedule).
func TestScheduleConflictFree(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		for step := 0; step < ExtractionSteps; step++ {
			seen := make(map[int]int)
			for _, s := range l.Stabilizers {
				q := s.Steps[step]
				if q < 0 {
					continue
				}
				if prev, ok := seen[q]; ok {
					t.Fatalf("d=%d step %d: data qubit %d used by stabilizers %d and %d",
						d, step, q, prev, s.Index)
				}
				seen[q] = s.Index
			}
		}
	}
}

// TestScheduleCoversSupport checks Steps and Data agree.
func TestScheduleCoversSupport(t *testing.T) {
	l := MustNew(5)
	for _, s := range l.Stabilizers {
		n := 0
		for _, q := range s.Steps {
			if q >= 0 {
				n++
			}
		}
		if n != s.Weight() {
			t.Fatalf("stabilizer %d: %d scheduled steps for weight %d", s.Index, n, s.Weight())
		}
	}
}

// TestLogicalOperator checks the logical Z support commutes with every X
// stabilizer (even overlap) and is a full row of d qubits.
func TestLogicalOperator(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		if len(l.ZLogicalSupport) != d {
			t.Fatalf("d=%d: logical support size %d", d, len(l.ZLogicalSupport))
		}
		inSupport := make(map[int]bool)
		for _, q := range l.ZLogicalSupport {
			inSupport[q] = true
		}
		for _, s := range l.Stabilizers {
			if s.Kind != KindX {
				continue
			}
			overlap := 0
			for _, q := range s.Data {
				if inSupport[q] {
					overlap++
				}
			}
			if overlap%2 != 0 {
				t.Fatalf("d=%d: X stabilizer %d anticommutes with logical Z", d, s.Index)
			}
		}
	}
}

// TestZGraphBoundaries checks that exactly the top-row and bottom-row data
// qubits have a single Z-stabilizer neighbor (they are the Z-matching-graph
// boundary edges), so undetected X chains terminate on the top and bottom.
func TestZGraphBoundaries(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		for q := 0; q < l.NumData; q++ {
			row := l.DataRow[q]
			want := 2
			if row == 0 || row == d-1 {
				want = 1
			}
			if got := len(l.DataZStabs[q]); got != want {
				t.Fatalf("d=%d: data qubit %d (row %d) has %d Z neighbors, want %d",
					d, q, row, got, want)
			}
		}
	}
}

func TestAlwaysAssignIsMatching(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		usedParity := make(map[int]bool)
		unmatched := 0
		for q, s := range l.AlwaysAssign {
			if s == -1 {
				unmatched++
				continue
			}
			if usedParity[s] {
				t.Fatalf("d=%d: parity %d matched twice", d, s)
			}
			usedParity[s] = true
			if !contains(l.DataStabs[q], s) {
				t.Fatalf("d=%d: data %d matched to non-adjacent parity %d", d, q, s)
			}
		}
		if unmatched != 1 {
			t.Fatalf("d=%d: %d unmatched data qubits, want exactly 1", d, unmatched)
		}
		if l.Leftover < 0 || l.AlwaysAssign[l.Leftover] != -1 {
			t.Fatalf("d=%d: Leftover = %d inconsistent", d, l.Leftover)
		}
	}
}

func TestSwapLookupTable(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		for q := 0; q < l.NumData; q++ {
			p := l.SwapPrimary[q]
			if !contains(l.DataStabs[q], p) {
				t.Fatalf("d=%d: primary of %d not adjacent", d, q)
			}
			b := l.SwapBackup[q]
			if b == p {
				t.Fatalf("d=%d: backup equals primary for %d", d, q)
			}
			if b >= 0 && !contains(l.DataStabs[q], b) {
				t.Fatalf("d=%d: backup of %d not adjacent", d, q)
			}
			if len(l.DataStabs[q]) >= 2 && b < 0 {
				t.Fatalf("d=%d: data %d has %d neighbors but no backup",
					d, q, len(l.DataStabs[q]))
			}
		}
	}
}

func TestSharedDataSymmetric(t *testing.T) {
	l := MustNew(5)
	f := func(a, b uint8) bool {
		i := int(a) % l.NumParity
		j := int(b) % l.NumParity
		return len(l.SharedData(i, j)) == len(l.SharedData(j, i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDataIDRoundTrip(t *testing.T) {
	l := MustNew(7)
	for q := 0; q < l.NumData; q++ {
		if l.DataID(l.DataRow[q], l.DataCol[q]) != q {
			t.Fatalf("DataID round trip failed for %d", q)
		}
		if !l.IsData(q) {
			t.Fatalf("IsData(%d) = false", q)
		}
	}
	for q := l.NumData; q < l.NumQubits; q++ {
		if l.IsData(q) {
			t.Fatalf("IsData(%d) = true for ancilla", q)
		}
	}
}

func TestZOrdinalDense(t *testing.T) {
	l := MustNew(5)
	seen := make([]bool, l.NumZ())
	for i, s := range l.Stabilizers {
		o := l.ZOrdinal(i)
		if s.Kind == KindZ {
			if o < 0 || o >= l.NumZ() || seen[o] {
				t.Fatalf("bad Z ordinal %d for stabilizer %d", o, i)
			}
			seen[o] = true
		} else if o != -1 {
			t.Fatalf("X stabilizer %d has Z ordinal %d", i, o)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindZ.String() != "Z" || KindX.String() != "X" {
		t.Fatal("Kind.String wrong")
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestD13Scales: the construction stays consistent at the largest distance a
// laptop sweep might use.
func TestD13Scales(t *testing.T) {
	l := MustNew(13)
	if l.NumQubits != 2*13*13-1 || l.NumZ() != (13*13-1)/2 || l.NumX() != l.NumZ() {
		t.Fatalf("d=13 counts wrong: %d qubits, %d Z, %d X", l.NumQubits, l.NumZ(), l.NumX())
	}
	if len(l.XLogicalSupport) != 13 {
		t.Fatalf("X logical support %d", len(l.XLogicalSupport))
	}
	// Logical Z and X intersect in exactly one qubit.
	shared := 0
	for _, a := range l.ZLogicalSupport {
		for _, b := range l.XLogicalSupport {
			if a == b {
				shared++
			}
		}
	}
	if shared != 1 {
		t.Fatalf("logical operators share %d qubits, want 1 (anticommutation)", shared)
	}
}

// TestXGraphBoundaries mirrors TestZGraphBoundaries for the memory-X graph:
// left/right columns are the X-matching boundary.
func TestXGraphBoundaries(t *testing.T) {
	for _, d := range testDistances {
		l := MustNew(d)
		for q := 0; q < l.NumData; q++ {
			col := l.DataCol[q]
			want := 2
			if col == 0 || col == d-1 {
				want = 1
			}
			if got := len(l.DataXStabs[q]); got != want {
				t.Fatalf("d=%d: data qubit %d (col %d) has %d X neighbors, want %d",
					d, q, col, got, want)
			}
		}
	}
}

// TestKindHelpers: the kind-parametrized accessors agree with their typed
// counterparts.
func TestKindHelpers(t *testing.T) {
	l := MustNew(5)
	if l.NumKind(KindZ) != l.NumZ() || l.NumKind(KindX) != l.NumX() {
		t.Fatal("NumKind mismatch")
	}
	for i := range l.Stabilizers {
		if l.KindOrdinal(KindZ, i) != l.ZOrdinal(i) || l.KindOrdinal(KindX, i) != l.XOrdinal(i) {
			t.Fatalf("KindOrdinal mismatch at %d", i)
		}
	}
	for q := 0; q < l.NumData; q++ {
		if len(l.DataKindStabs(KindZ, q)) != len(l.DataZStabs[q]) {
			t.Fatal("DataKindStabs mismatch")
		}
	}
	if len(l.LogicalSupport(KindX)) != 5 || len(l.LogicalSupport(KindZ)) != 5 {
		t.Fatal("LogicalSupport size wrong")
	}
}

// BenchmarkLayoutConstruction times building a d=11 layout from scratch,
// matching and SWAP tables included: what New pays once per distance.
func BenchmarkLayoutConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(11)
	}
}
