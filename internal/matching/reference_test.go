package matching

import (
	"math"
	"math/bits"
	"sort"
)

// This file keeps the closure-based matcher that the table-driven one
// replaced, as the oracle of TestSolveMatchesReference: the table-driven
// Solve must return the same Mate and the same Weight, bit for bit, on every
// instance. Its Exact and 2-opt are kept verbatim apart from a ref prefix on
// every name. Its Greedy is the plain definition of the greedy order: all
// N(N+1)/2 candidates, sorted by (weight, lower event, partner), each taken
// when its events are free.

// refInstance is the closure form of Instance.
type refInstance struct {
	N int
	// PairWeight returns the cost of matching events i and j (i != j).
	PairWeight func(i, j int) float64
	// BoundaryWeight returns the cost of matching event i to the boundary.
	BoundaryWeight func(i int) float64
	// MaxExact caps the event count solved exactly by Solve; 0 falls back to
	// the package constant MaxExact.
	MaxExact int
}

func (inst refInstance) maxExact() int {
	if inst.MaxExact > 0 {
		return inst.MaxExact
	}
	return MaxExact
}

// weight recomputes the total cost of a matching.
func (inst refInstance) weight(mate []int) float64 {
	var w float64
	for i, j := range mate {
		switch {
		case j == Boundary:
			w += inst.BoundaryWeight(i)
		case j > i:
			w += inst.PairWeight(i, j)
		}
	}
	return w
}

// cost is the pair-or-boundary cost of matching i with j.
func (inst refInstance) cost(i, j int) float64 {
	if j == Boundary {
		return inst.BoundaryWeight(i)
	}
	return inst.PairWeight(i, j)
}

// costOrZero is cost where either side may be Boundary; two boundaries cost
// nothing (both structures dissolve).
func (inst refInstance) costOrZero(i, j int) float64 {
	if i == Boundary && j == Boundary {
		return 0
	}
	if i == Boundary {
		return inst.cost(j, Boundary)
	}
	return inst.cost(i, j)
}

type refWorkspace struct {
	dp     []float64
	choice []int32
	mate   []int
	cands  []refCand
	pw     []float64 // n x n pair-weight matrix, filled per Exact call
	bw     []float64 // boundary weights, filled per Exact call
}

type refCand struct {
	w    float64
	i, j int // j == Boundary for boundary candidates
}

// Solve returns an exact matching when N is within the instance's exact cap
// and a refined greedy matching otherwise. The result aliases the workspace.
func (ws *refWorkspace) Solve(inst refInstance) Result {
	if inst.N == 0 {
		return Result{}
	}
	if inst.N <= inst.maxExact() {
		return ws.Exact(inst)
	}
	return ws.refineInPlace(inst, ws.Greedy(inst), 8)
}

func (ws *refWorkspace) mateBuf(n int) []int {
	if cap(ws.mate) < n {
		ws.mate = make([]int, n)
	}
	return ws.mate[:n]
}

// Exact computes a minimum-weight matching by dynamic programming over
// subsets, reusing the workspace's tables. It must only be called with
// inst.N <= about 20; memory is O(2^N) and time O(2^N * N).
func (ws *refWorkspace) Exact(inst refInstance) Result {
	n := inst.N
	if n == 0 {
		return Result{}
	}
	size := 1 << n
	if cap(ws.dp) < size {
		ws.dp = make([]float64, size)
		ws.choice = make([]int32, size)
	}
	if cap(ws.pw) < n*n {
		ws.pw = make([]float64, n*n)
		ws.bw = make([]float64, n)
	}
	dp := ws.dp[:size]
	choice := ws.choice[:size]
	// Tabulate the weights once: the DP below reads each pair O(2^n) times,
	// and indexing a flat matrix beats re-invoking the instance's weight
	// closures by a large factor on dense clusters.
	pw := ws.pw[:n*n]
	bw := ws.bw[:n]
	for i := 0; i < n; i++ {
		bw[i] = inst.BoundaryWeight(i)
		for j := i + 1; j < n; j++ {
			w := inst.PairWeight(i, j)
			pw[i*n+j], pw[j*n+i] = w, w
		}
	}
	for s := 1; s < size; s++ {
		i := refLowestBit(s)
		best := bw[i] + dp[s&^(1<<i)]
		bestJ := int32(-1)
		rest := s &^ (1 << i)
		row := pw[i*n : i*n+n]
		for t := rest; t != 0; t &= t - 1 {
			j := refLowestBit(t)
			w := row[j] + dp[s&^(1<<i)&^(1<<j)]
			if w < best {
				best, bestJ = w, int32(j)
			}
		}
		dp[s] = best
		choice[s] = bestJ
	}
	mate := ws.mateBuf(n)
	for i := range mate {
		mate[i] = Boundary
	}
	for s := size - 1; s != 0; {
		i := refLowestBit(s)
		j := choice[s]
		if j < 0 {
			mate[i] = Boundary
			s &^= 1 << i
		} else {
			mate[i], mate[int(j)] = int(j), i
			s = s &^ (1 << i) &^ (1 << int(j))
		}
	}
	return Result{Mate: mate, Weight: dp[size-1]}
}

func refLowestBit(s int) int {
	return bits.TrailingZeros64(uint64(s))
}

// Greedy sorts every candidate, each pair (i, j) with i < j and each event
// alone to the boundary (partner Boundary = -1), by (weight, lower event,
// partner) and takes each candidate whose events are both still free.
// The result aliases the workspace.
func (ws *refWorkspace) Greedy(inst refInstance) Result {
	n := inst.N
	mate := ws.mateBuf(n)
	for i := range mate {
		mate[i] = -2 // unmatched
	}
	cands := ws.cands[:0]
	for i := 0; i < n; i++ {
		cands = append(cands, refCand{inst.BoundaryWeight(i), i, Boundary})
		for j := i + 1; j < n; j++ {
			cands = append(cands, refCand{inst.PairWeight(i, j), i, j})
		}
	}
	ws.cands = cands
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.w != cb.w {
			return ca.w < cb.w
		}
		if ca.i != cb.i {
			return ca.i < cb.i
		}
		return ca.j < cb.j
	})
	for _, c := range cands {
		if mate[c.i] != -2 {
			continue
		}
		if c.j == Boundary {
			mate[c.i] = Boundary
		} else if mate[c.j] == -2 {
			mate[c.i], mate[c.j] = c.j, c.i
		}
	}
	return Result{Mate: mate, Weight: inst.weight(mate)}
}

// Refine improves a matching with 2-opt local search, mutating r.Mate in
// place (the workspace form; pair it with Workspace.Greedy, whose result
// already aliases the workspace).
func (ws *refWorkspace) refineInPlace(inst refInstance, r Result, maxPasses int) Result {
	n := inst.N
	mate := r.Mate
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for a := 0; a < n; a++ {
			b := mate[a]
			if b != Boundary && b < a {
				continue // visit each pair once via its smaller endpoint
			}
			for c := a + 1; c < n; c++ {
				if c == b {
					continue
				}
				d := mate[c]
				if d != Boundary && (d < c || d == a || d == b) {
					continue
				}
				cur := inst.cost(a, b) + inst.cost(c, d)
				// Option 1: (a,c) and (b,d).
				w1 := inst.cost(a, c) + inst.costOrZero(b, d)
				// Option 2: (a,d) and (b,c) — only when both b and d exist
				// or can be boundary-matched.
				w2 := math.Inf(1)
				if d != Boundary {
					w2 = inst.cost(a, d) + inst.costOrZero(b, c)
				}
				const eps = 1e-12
				if w1 < cur-eps && w1 <= w2 {
					refRelink(mate, a, c, b, d)
					improved = true
					b = mate[a]
				} else if w2 < cur-eps {
					refRelink(mate, a, d, b, c)
					improved = true
					b = mate[a]
				}
			}
		}
		if !improved {
			break
		}
	}
	return Result{Mate: mate, Weight: inst.weight(mate)}
}

func refRelink(mate []int, a, x, b, y int) {
	// New structure: a with x; b with y (either may be Boundary).
	link := func(i, j int) {
		if i == Boundary && j == Boundary {
			return
		}
		if i == Boundary {
			mate[j] = Boundary
			return
		}
		if j == Boundary {
			mate[i] = Boundary
			return
		}
		mate[i], mate[j] = j, i
	}
	link(a, x)
	link(b, y)
}
