// Package matching solves the minimum-weight matching problem at the heart
// of surface-code decoding: every detection event must be paired with
// another event or with the lattice boundary, minimizing total weight.
//
// Two engines are provided. Exact solves the problem optimally with a
// dynamic program over the subsets of events and is used whenever the event
// set is small (the common case at low physical error rates, and the gold
// standard for tests). Greedy plus Refine is an approximation for large
// event sets: greedy construction in one documented total order followed
// by 2-opt local search over pair/boundary rematches. It is not
// near-optimal on dense leakage clusters: on the 13-18-event clusters of
// 3,000 d=7, p=1e-3 shots under Always LRCs and 3,000 under ERASER, 28%
// and 29% of its solutions are heavier than the exact optimum. Solve picks
// by event count.
//
// An Instance carries its weights as flat tables, which the caller fills
// once per problem; every engine reads them by index.
//
// All engines are available in two forms: the package-level functions, which
// allocate their scratch per call, and the methods on Workspace, which reuse
// per-instance buffers so steady-state solving is allocation-free. Decoders
// on the hot batch path hold one Workspace per decoder instance.
package matching

import (
	"math"
	"math/bits"
	"slices"
)

// Boundary is the Mate value of an event matched to the lattice boundary.
const Boundary = -1

// MaxExact is the cap on event counts solved exactly for instances that do
// not set their own (Instance.MaxExact == 0). The exact matcher's cost grows
// exponentially with N, so this bound is the knee of the decode-latency
// tail: clusters up to this size decode in a few microseconds, and the
// larger ones (long time-chains seeded by a leaked, never-reset parity
// qubit) fall back to greedy-plus-2-opt.
const MaxExact = 12

// Instance describes a matching problem over N detection events.
//
// The weight tables follow one orientation rule. Exact, Greedy and the
// total Weight read a pair (i, j) only as Pair[i*N+j] with i < j; the 2-opt
// pass of Refine and Solve reads both Pair[i*N+j] and Pair[j*N+i], in
// whichever order its rewiring meets the two events. A caller whose pair
// weights are symmetric stores each value twice; a caller whose weight
// function is not exactly symmetric stores each ordered pair's own weight.
type Instance struct {
	N int
	// Pair[i*N+j] is the cost of matching event i with event j (i != j);
	// the diagonal is never read.
	Pair []float64
	// Boundary[i] is the cost of matching event i to the boundary.
	Boundary []float64
	// MaxExact caps the event count solved exactly by Solve; 0 falls back to
	// the package constant MaxExact.
	MaxExact int
}

func (inst *Instance) maxExact() int {
	if inst.MaxExact > 0 {
		return inst.MaxExact
	}
	return MaxExact
}

// Result holds a complete matching: Mate[i] is the partner of event i, or
// Boundary. Weight is the total cost.
type Result struct {
	Mate   []int
	Weight float64
}

// weight recomputes the total cost of a matching.
func (inst *Instance) weight(mate []int) float64 {
	var w float64
	for i, j := range mate {
		switch {
		case j == Boundary:
			w += inst.Boundary[i]
		case j > i:
			w += inst.Pair[i*inst.N+j]
		}
	}
	return w
}

// cost is the pair-or-boundary cost of matching i with j.
func (inst *Instance) cost(i, j int) float64 {
	if j == Boundary {
		return inst.Boundary[i]
	}
	return inst.Pair[i*inst.N+j]
}

// costOrZero is cost where either side may be Boundary; two boundaries cost
// nothing (both structures dissolve).
func (inst *Instance) costOrZero(i, j int) float64 {
	if i == Boundary && j == Boundary {
		return 0
	}
	if i == Boundary {
		return inst.cost(j, Boundary)
	}
	return inst.cost(i, j)
}

// Workspace holds reusable scratch for the matching engines. The zero value
// is ready to use; buffers grow to the high-water mark of the instances
// solved and are reused afterwards, so steady-state solving performs no
// allocations. Results returned by Workspace methods alias the workspace's
// internal mate buffer: they are valid until the next call on the same
// workspace. A Workspace is not safe for concurrent use.
type Workspace struct {
	dp     []float64
	choice []int8 // partner of each subset's lowest event, or -1; N stays far below 128
	mate   []int
	pairs  []pair
}

// pair is a pair (i, j), i < j, that greedy may take, with its weight.
type pair struct {
	w    float64
	i, j int32
}

// Solve returns an exact matching when N is within the instance's exact cap
// and a refined greedy matching otherwise. The result aliases the workspace.
func (ws *Workspace) Solve(inst Instance) Result {
	if inst.N == 0 {
		return Result{}
	}
	if inst.N <= inst.maxExact() {
		return ws.Exact(inst)
	}
	return ws.refineInPlace(&inst, ws.Greedy(inst), 8)
}

func (ws *Workspace) mateBuf(n int) []int {
	if cap(ws.mate) < n {
		ws.mate = make([]int, n)
	}
	return ws.mate[:n]
}

// Exact computes a minimum-weight matching by dynamic programming over
// subsets, reusing the workspace's tables. It must only be called with
// inst.N <= about 20: the tables are indexed by subset, O(2^N) memory.
//
// dp[s] is the cheapest matching of the event set s. Its lowest event i
// goes to the boundary or pairs with a later event j of s, scanned in
// ascending order; a strictly cheaper option replaces the incumbent, so
// ties keep the boundary, then the lowest j. Only the sets reachable from
// the full set by these moves are ever read: a set whose lowest event is k
// and which lacks r of the events above k is reachable iff r <= k (each
// removed event was the partner of a distinct event below k). They number
// F(N+2)-1 (Fibonacci), 376 of the 4,095 non-empty sets at N=12, and the
// DP evaluates exactly those, by descending lowest event so that every
// subproblem is solved before it is read.
func (ws *Workspace) Exact(inst Instance) Result {
	n := inst.N
	if n == 0 {
		return Result{}
	}
	size := 1 << n
	if cap(ws.dp) < size {
		ws.dp = make([]float64, size)
		ws.choice = make([]int8, size)
	}
	dp := ws.dp[:size]
	choice := ws.choice[:size]
	dp[0] = 0
	for k := n - 1; k >= 0; k-- {
		row := inst.Pair[k*n : k*n+n]
		bk := inst.Boundary[k]
		top := n - 1 - k // events above k
		// Each state is [k, n) minus r of the events above k, r <= k: walk
		// the r-subsets of the top bits in Gosper order.
		for r := 0; r <= min(k, top); r++ {
			for x := uint(1)<<r - 1; x < uint(1)<<top; {
				rest := (1<<top - 1 - int(x)) << (k + 1) // s without k
				best := bk + dp[rest]
				bestJ := int8(-1)
				for t := rest; t != 0; t &= t - 1 {
					j := lowestBit(t)
					w := row[j] + dp[rest&^(1<<j)]
					if w < best {
						best, bestJ = w, int8(j)
					}
				}
				s := rest | 1<<k
				dp[s] = best
				choice[s] = bestJ
				if x == 0 {
					break
				}
				c := x & -x
				y := x + c
				x = y | (x^y)>>(bits.TrailingZeros(c)+2)
			}
		}
	}
	mate := ws.mateBuf(n)
	for i := range mate {
		mate[i] = Boundary
	}
	for s := size - 1; s != 0; {
		i := lowestBit(s)
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

func lowestBit(s int) int {
	return bits.TrailingZeros64(uint64(s))
}

// Greedy builds a matching by taking candidates in one total order and
// keeping each whose events are both still free, reusing the workspace's
// pair buffer. A candidate is a pair (i, j), i < j, of weight Pair[i*N+j],
// or event i alone to the boundary, of weight Boundary[i] and counted as
// partner -1. The order is (weight, lower event, partner): cheaper first,
// then the lower event, then the lower partner, so a tie keeps the boundary
// and then the lowest partner, as Exact's ties do. The result aliases the
// workspace.
//
// Only the pairs with Pair[i*N+j] < Boundary[i] and Pair[i*N+j] <=
// Boundary[j] can be taken: otherwise the boundary candidate of i or of j
// comes first in the order and claims its event. Every pair of an event
// that outlives its boundary candidate is such a pruned pair, so skipping
// the boundary candidates changes nothing. Greedy therefore sorts only the
// pairs within both bounds, takes each whose events are free, and sends
// every event left over to the boundary. Weights must not be NaN.
func (ws *Workspace) Greedy(inst Instance) Result {
	n := inst.N
	mate := ws.mateBuf(n)
	for i := range mate {
		mate[i] = -2 // unmatched
	}
	pairs := ws.pairs[:0]
	for i := 0; i < n; i++ {
		bi := inst.Boundary[i]
		row := inst.Pair[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			if w := row[j]; w < bi && w <= inst.Boundary[j] {
				pairs = append(pairs, pair{w, int32(i), int32(j)})
			}
		}
	}
	ws.pairs = pairs
	slices.SortFunc(pairs, func(a, b pair) int {
		switch {
		case a.w < b.w:
			return -1
		case a.w > b.w:
			return 1
		case a.i != b.i:
			return int(a.i - b.i)
		}
		return int(a.j - b.j)
	})
	for _, p := range pairs {
		if mate[p.i] == -2 && mate[p.j] == -2 {
			mate[p.i], mate[p.j] = int(p.j), int(p.i)
		}
	}
	for i := range mate {
		if mate[i] == -2 {
			mate[i] = Boundary
		}
	}
	return Result{Mate: mate, Weight: inst.weight(mate)}
}

// refineInPlace improves a matching with 2-opt local search, mutating r.Mate
// in place (the workspace form; pair it with Workspace.Greedy, whose result
// already aliases the workspace).
func (ws *Workspace) refineInPlace(inst *Instance, r Result, maxPasses int) Result {
	n := inst.N
	mate := r.Mate
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for a := 0; a < n; a++ {
			b := mate[a]
			if b != Boundary && b < a {
				continue // visit each pair once via its smaller endpoint
			}
			costAB := inst.cost(a, b)
			for c := a + 1; c < n; c++ {
				if c == b {
					continue
				}
				d := mate[c]
				if d != Boundary && (d < c || d == a || d == b) {
					continue
				}
				cur := costAB + inst.cost(c, d)
				// Option 1: (a,c) and (b,d).
				w1 := inst.Pair[a*n+c] + inst.costOrZero(b, d)
				// Option 2: (a,d) and (b,c) — only when both b and d exist
				// or can be boundary-matched.
				w2 := math.Inf(1)
				if d != Boundary {
					w2 = inst.Pair[a*n+d] + inst.costOrZero(b, c)
				}
				const eps = 1e-12
				if w1 < cur-eps && w1 <= w2 {
					relink(mate, a, c, b, d)
					improved = true
					b = mate[a]
					costAB = inst.cost(a, b)
				} else if w2 < cur-eps {
					relink(mate, a, d, b, c)
					improved = true
					b = mate[a]
					costAB = inst.cost(a, b)
				}
			}
		}
		if !improved {
			break
		}
	}
	return Result{Mate: mate, Weight: inst.weight(mate)}
}

// relink rewires the matching to a with x and b with y (either may be
// Boundary).
func relink(mate []int, a, x, b, y int) {
	link(mate, a, x)
	link(mate, b, y)
}

func link(mate []int, i, j int) {
	switch {
	case i == Boundary && j == Boundary:
	case i == Boundary:
		mate[j] = Boundary
	case j == Boundary:
		mate[i] = Boundary
	default:
		mate[i], mate[j] = j, i
	}
}

// Exact computes a minimum-weight matching by dynamic programming over
// subsets. It must only be called with inst.N <= about 20; memory is
// O(2^N).
func Exact(inst Instance) Result {
	var ws Workspace
	return ws.Exact(inst)
}

// Greedy builds a matching by taking pairings (event-event or
// event-boundary) in ascending order of (weight, lower event, partner), the
// boundary counting as partner -1, whenever both events are still free.
func Greedy(inst Instance) Result {
	var ws Workspace
	return ws.Greedy(inst)
}

// Refine improves a matching with 2-opt local search. It considers
// rewiring every pair of matched structures (two pairs, a pair and a
// boundary match, or two boundary matches) in scan order and applies the
// first rewiring that lowers the weight, then keeps scanning; it repeats
// until a pass finds none or after maxPasses passes. The input matching is
// not mutated.
func Refine(inst Instance, r Result, maxPasses int) Result {
	var ws Workspace
	cp := Result{Mate: append([]int(nil), r.Mate...), Weight: r.Weight}
	return ws.refineInPlace(&inst, cp, maxPasses)
}

// Solve returns an exact matching when N is within the instance's exact cap
// (Instance.MaxExact, defaulting to the package MaxExact) and a refined
// greedy matching otherwise.
func Solve(inst Instance) Result {
	var ws Workspace
	return ws.Solve(inst)
}
