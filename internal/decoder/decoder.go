// Package decoder implements minimum-weight perfect-matching decoding of the
// Z-stabilizer detection events of a memory-Z experiment (Section 2.2 of the
// paper). The decoder precomputes, once per (layout, kind, weights), all-pairs
// shortest-path distances on the Z-stabilizer space graph — whose edges are
// the data qubits, with the top and bottom lattice boundaries merged into a
// single virtual node — together with the parity of logical-observable
// crossings along each shortest path. The precompute is immutable and
// shared through a content-keyed cache, and each table also keeps the
// scratch its decode calls borrow, so a decoder is an O(lookup) handle that
// any number of goroutines may share. Decoding a shot then reduces to a
// matching problem over the detection events with separable space+time
// distances, solved
// exactly for small event sets and by refined greedy matching for large ones
// (see package matching).
package decoder

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/matching"
	"repro/internal/surfacecode"
)

// Config tunes the decoder's matching graph with per-site priors; the zero
// value weighs every space and time edge 1, the standard choice for
// hardware MWPM decoders.
type Config struct {
	// SpaceWeights, when non-nil, gives each space edge its own weight,
	// indexed by the data qubit the edge represents. Device profiles install
	// -log-likelihood priors here so the matcher prefers explanations
	// through a device's noisy regions.
	SpaceWeights []float64
	// TimeWeights, when non-nil, gives each stabilizer its own time-edge
	// weight, indexed by stabilizer index. The time cost between two events
	// is the mean of their stabilizers' weights per round of separation,
	// which reduces exactly to dt in the uniform case.
	TimeWeights []float64
}

// Validate reports whether the config builds a working decoder for the
// distance-d layout: per-site vectors, when set, hold exactly one finite,
// non-negative weight per data qubit (SpaceWeights) or per stabilizer
// (TimeWeights). The layout is built only to check vector lengths, so
// configs without per-site vectors stay cheap to validate.
func (c Config) Validate(d int) error {
	if c.SpaceWeights == nil && c.TimeWeights == nil {
		return nil
	}
	l, err := surfacecode.New(d)
	if err != nil {
		return fmt.Errorf("decoder: %w", err)
	}
	if c.SpaceWeights != nil && len(c.SpaceWeights) != l.NumData {
		return fmt.Errorf("decoder: %d space weights for %d data qubits", len(c.SpaceWeights), l.NumData)
	}
	for q, w := range c.SpaceWeights {
		if badWeight(w) {
			return fmt.Errorf("decoder: space weight of data qubit %d is %g, want finite and >= 0", q, w)
		}
	}
	if c.TimeWeights != nil && len(c.TimeWeights) != len(l.Stabilizers) {
		return fmt.Errorf("decoder: %d time weights for %d stabilizers", len(c.TimeWeights), len(l.Stabilizers))
	}
	for i, w := range c.TimeWeights {
		if badWeight(w) {
			return fmt.Errorf("decoder: time weight of stabilizer %d is %g, want finite and >= 0", i, w)
		}
	}
	return nil
}

// badWeight reports a negative, infinite or NaN weight.
func badWeight(w float64) bool { return !(w >= 0) || math.IsInf(w, 1) }

// Event is one detection event at (kind-ordinal, round); Z holds the dense
// ordinal of the stabilizer among its kind (surfacecode.Layout.KindOrdinal).
// The final transversal-measurement detector layer uses round = rounds+1.
type Event struct {
	Z     int
	Round int
}

// spaceTable is the precompute of one (layout, kind, weights) combination:
// all-pairs shortest space-graph distances, logical-crossing parities, and
// per-ordinal time-edge weights. Tables are shared between decoder handles
// via a content-keyed cache, so the precompute must never be mutated after
// construction. The table also leads to the working memory of its decodes:
// released scratch and unit collectors wait on its free lists for the next
// call, whichever handle makes it.
type spaceTable struct {
	// nz is the number of kind ordinals; ordinal nz is the boundary node.
	nz int
	// dist[a*stride+b] is the shortest space-graph distance between Z
	// ordinals a and b (stride = nz+1); ordinal nz is the boundary node.
	// Row a is Dijkstra from a, so with non-uniform weights dist[a][b] and
	// dist[b][a] can differ in the last bit: the sums run in different
	// orders.
	dist []float64
	// cross[a*stride+b] is 1 when the shortest path crosses the logical-Z
	// support an odd number of times.
	cross []uint8
	// tw[a] is the time-edge weight of kind-ordinal a (uniformly 1 unless
	// cfg.TimeWeights is set).
	tw []float64
	// twMin is the smallest time weight. scanCut is set when every time
	// weight and distance is non-negative, so a pair's weight is at least
	// its time cost, which Decode's cluster pass uses to end its scans.
	twMin   float64
	scanCut bool

	// free holds released scratch arenas and unit collectors. Their sizes
	// follow event counts, not weights, so every table of one (distance,
	// kind) shares one set: a sweep over many device profiles, each with
	// its own table, keeps one set of arenas rather than one per profile.
	free *freeLists
}

// freeLists are the released scratch arenas and unit collectors of one
// (distance, kind).
type freeLists struct {
	scratch freeList[scratch]
	cols    freeList[BatchCollector]
}

var layoutFree sync.Map // [2]int{distance, kind} -> *freeLists

// freeList is a mutex-guarded stack of released values. It never shrinks,
// so it holds at most as many values as were ever in use at once.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get pops the most recently released value, or returns a new zero value
// when none is free.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return new(T)
	}
	x := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	return x
}

// put releases x for the next get.
func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.items = append(f.items, x)
	f.mu.Unlock()
}

// scratch is one decode call's working memory: the cluster buffers and the
// matching workspace, grown to the high-water event and cluster counts of
// the shots decoded with it and reused.
type scratch struct {
	bw     []float64
	parent []int32
	root   []int32
	done   []bool
	sub    []int32
	// pair and bound are the current cluster's matching.Instance tables,
	// grown to the high-water cluster size.
	pair  []float64
	bound []float64
	ws    matching.Workspace
}

var spaceTables sync.Map // string key -> *spaceTable

// spaceTableKey builds the exact content key of a table: code distance,
// stabilizer kind, and every per-site weight at full float64 precision. Two
// configs share a table iff they would build byte-identical tables.
func spaceTableKey(l *surfacecode.Layout, cfg Config, kind surfacecode.Kind) string {
	b := make([]byte, 0, 32+8*(len(cfg.SpaceWeights)+len(cfg.TimeWeights)))
	put := func(v uint64) {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	put(uint64(l.Distance))
	put(uint64(kind))
	put(uint64(len(cfg.SpaceWeights)))
	for _, w := range cfg.SpaceWeights {
		put(math.Float64bits(w))
	}
	put(uint64(len(cfg.TimeWeights)))
	for _, w := range cfg.TimeWeights {
		put(math.Float64bits(w))
	}
	return string(b)
}

// sharedSpaceTable returns the cached table for (layout, kind, weights),
// building it on first use. Concurrent first lookups may build the table
// twice; construction is deterministic, so whichever lands in the cache is
// equivalent.
func sharedSpaceTable(l *surfacecode.Layout, cfg Config, kind surfacecode.Kind) *spaceTable {
	key := spaceTableKey(l, cfg, kind)
	if t, ok := spaceTables.Load(key); ok {
		return t.(*spaceTable)
	}
	t := buildSpaceTable(l, cfg, kind)
	actual, _ := spaceTables.LoadOrStore(key, t)
	return actual.(*spaceTable)
}

// Decoder decodes the detection events of one stabilizer kind for a fixed
// layout: Z detectors for memory-Z experiments (the default), X detectors
// for memory-X.
//
// A Decoder is an immutable handle on its shared table and is safe for
// concurrent use. Each Decode or DecodeLanes call takes one scratch arena
// (cluster buffers and a matching workspace) from the table's free list and
// returns it when done, so steady-state decoding performs no allocations,
// and a fresh handle on a table decodes as warm as an old one. The free
// lists, shared by the tables of one distance and kind, keep as many arenas
// as decode calls ever ran on them at once, and as many unit collectors as
// were ever borrowed at once.
type Decoder struct {
	tab *spaceTable
}

// New builds the memory-Z decoder for a layout.
func New(l *surfacecode.Layout, cfg Config) *Decoder {
	return NewForKind(l, cfg, surfacecode.KindZ)
}

// NewForKind builds a decoder for the detectors of the given stabilizer
// kind (KindZ decodes X-type errors against the logical Z, KindX decodes
// Z-type errors against the logical X).
func NewForKind(l *surfacecode.Layout, cfg Config, kind surfacecode.Kind) *Decoder {
	return &Decoder{tab: sharedSpaceTable(l, cfg, kind)}
}

// Collector returns an empty unit collector, reusing one a caller released
// on this decoder's table when there is one. A new one gets the small lane
// buffers NewBatchCollector gives.
func (d *Decoder) Collector() *BatchCollector {
	c := d.tab.free.cols.get()
	if c.lanes[0] == nil { // new: Release keeps the buffers it was given
		c.init()
	}
	return c
}

// Release empties c and keeps it, with its grown lane buffers, for the next
// Collector call on the same table. The caller must not use c afterwards.
func (d *Decoder) Release(c *BatchCollector) {
	c.Reset()
	d.tab.free.cols.put(c)
}

type spaceEdge struct {
	to    int
	w     float64
	cross uint8
}

func buildSpaceTable(l *surfacecode.Layout, cfg Config, kind surfacecode.Kind) *spaceTable {
	nz := l.NumKind(kind)
	free, _ := layoutFree.LoadOrStore([2]int{l.Distance, int(kind)}, new(freeLists))
	t := &spaceTable{nz: nz, tw: make([]float64, nz), free: free.(*freeLists)}
	for i := range t.tw {
		t.tw[i] = 1
	}
	if cfg.TimeWeights != nil {
		for stab, w := range cfg.TimeWeights {
			if ord := l.KindOrdinal(kind, stab); ord >= 0 {
				t.tw[ord] = w
			}
		}
	}

	n := nz + 1 // + boundary node
	boundary := nz
	adj := make([][]spaceEdge, n)
	isLogical := make([]bool, l.NumData)
	for _, q := range l.LogicalSupport(kind) {
		isLogical[q] = true
	}
	addEdge := func(a, b int, q int) {
		var c uint8
		if isLogical[q] {
			c = 1
		}
		w := 1.0
		if cfg.SpaceWeights != nil {
			w = cfg.SpaceWeights[q]
		}
		adj[a] = append(adj[a], spaceEdge{b, w, c})
		adj[b] = append(adj[b], spaceEdge{a, w, c})
	}
	for q := 0; q < l.NumData; q++ {
		zs := l.DataKindStabs(kind, q)
		switch len(zs) {
		case 2:
			addEdge(l.KindOrdinal(kind, zs[0]), l.KindOrdinal(kind, zs[1]), q)
		case 1:
			addEdge(l.KindOrdinal(kind, zs[0]), boundary, q)
		}
	}

	t.dist = make([]float64, 0, n*n)
	t.cross = make([]uint8, 0, n*n)
	for src := 0; src < n; src++ {
		dist, cross := dijkstra(adj, src)
		t.dist = append(t.dist, dist...)
		t.cross = append(t.cross, cross...)
	}
	t.twMin = math.Inf(1)
	for _, w := range t.tw {
		t.twMin = min(t.twMin, w) // NaN-propagating
	}
	t.scanCut = t.twMin >= 0
	for _, v := range t.dist {
		t.scanCut = t.scanCut && v >= 0
	}
	return t
}

// dijkstra returns shortest distances from src plus the observable-crossing
// parity of each shortest path. The graphs are tiny (tens of nodes), so a
// simple O(V^2) scan is used.
func dijkstra(adj [][]spaceEdge, src int) ([]float64, []uint8) {
	n := len(adj)
	dist := make([]float64, n)
	cross := make([]uint8, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range adj[u] {
			if nd := dist[u] + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				cross[e.to] = cross[u] ^ e.cross
			}
		}
	}
	return dist, cross
}

// SpaceDistance exposes the precomputed Z-ordinal space distance (tests).
func (d *Decoder) SpaceDistance(a, b int) float64 { return d.tab.dist[a*(d.tab.nz+1)+b] }

// BoundaryDistance exposes the distance from Z ordinal a to the boundary.
func (d *Decoder) BoundaryDistance(a int) float64 { return d.tab.dist[a*(d.tab.nz+1)+d.tab.nz] }

// timeCost is the time part of the cost of matching events a and b: the
// per-ordinal time weights, averaged over the pair, per round of
// separation. With uniform weights (w+w)/2 == w exactly, so this is
// bit-identical to the historical uniform dt cost; it is symmetric in a
// and b, bit for bit, since float addition commutes.
func timeCost(tw []float64, a, b Event) float64 {
	dt := a.Round - b.Round
	if dt < 0 {
		dt = -dt
	}
	return (tw[a.Z] + tw[b.Z]) / 2 * float64(dt)
}

// Decode matches the detection events and returns the predicted logical
// observable flip (the crossing parity of the matched correction).
//
// Before matching, the event set is decomposed into independent clusters:
// an edge (i, j) whose weight is at least the cost of boundary-matching
// both endpoints can be dropped without losing any minimum-weight solution
// (replacing the pair with two boundary matches is never worse), and the
// connected components of the surviving edges decode independently. At the
// paper's error rates events are sparse in space-time, so clusters hold a
// handful of events each and the exponential exact matcher runs on tiny
// instances instead of the whole shot — this is what keeps decoding off the
// critical path of the word-parallel batch simulator.
func (d *Decoder) Decode(events []Event) uint8 {
	s := d.tab.free.scratch.get()
	flip := s.decode(d.tab, events)
	d.tab.free.scratch.put(s)
	return flip
}

// decode is Decode on table t with s as its working memory.
func (s *scratch) decode(t *spaceTable, events []Event) uint8 {
	n := len(events)
	if n == 0 {
		return 0
	}
	stride, bnd := t.nz+1, t.nz
	dist, cross, tw := t.dist, t.cross, t.tw
	// Allocation-free fast paths for the one- and two-event shots that
	// dominate at low physical error rates.
	if n == 1 {
		return cross[events[0].Z*stride+bnd]
	}
	if n == 2 {
		e0, e1 := events[0], events[1]
		if dist[e0.Z*stride+e1.Z]+timeCost(tw, e0, e1) < dist[e0.Z*stride+bnd]+dist[e1.Z*stride+bnd] {
			return cross[e0.Z*stride+e1.Z]
		}
		return cross[e0.Z*stride+bnd] ^ cross[e1.Z*stride+bnd]
	}
	s.grow(n)
	bw := s.bw[:n]
	bwMax, sorted := math.Inf(-1), true
	for i, e := range events {
		bw[i] = dist[e.Z*stride+bnd]
		bwMax = max(bwMax, bw[i])
		sorted = sorted && (i == 0 || e.Round >= events[i-1].Round)
	}
	scanCut := sorted && t.scanCut

	// Union-find over the edges that can participate in an optimal matching.
	parent := s.parent[:n]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for i, a := range events {
		row := dist[a.Z*stride : a.Z*stride+stride]
		// With events in round order, the scan from i can stop at the first
		// event whose time cost alone reaches bw[i]+max(bw): no later pair
		// is lighter than boundary-matching both of its events. The cut is
		// exact, so the clusters are those of the full scan.
		endRound := math.MaxInt
		if scanCut {
			endRound = a.Round + cutRounds((tw[a.Z]+t.twMin)/2, bw[i]+bwMax)
		}
		for j := i + 1; j < n; j++ {
			b := events[j]
			if b.Round >= endRound {
				break
			}
			if row[b.Z]+timeCost(tw, a, b) < bw[i]+bw[j] {
				if ri, rj := find(int32(i)), find(int32(j)); ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	root := s.root[:n]
	done := s.done[:n]
	for i := range root {
		root[i] = find(int32(i))
		done[i] = false
	}

	// Group events by component, in deterministic first-member order with
	// ascending event indices inside each cluster, and match each cluster on
	// its own. XOR-accumulating flips makes the cluster visit order
	// irrelevant to the result.
	var flip uint8
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		sub := s.sub[:0]
		r := root[i]
		for j := i; j < n; j++ {
			if root[j] == r {
				sub = append(sub, int32(j))
				done[j] = true
			}
		}
		s.sub = sub
		if len(sub) == 1 {
			// A lone event always boundary-matches.
			flip ^= cross[events[sub[0]].Z*stride+bnd]
			continue
		}
		res := s.ws.Solve(s.instance(t, events, sub))
		for i, j := range res.Mate {
			za := events[sub[i]].Z
			switch {
			case j == matching.Boundary:
				flip ^= cross[za*stride+bnd]
			case j > i:
				flip ^= cross[za*stride+events[sub[j]].Z]
			}
		}
	}
	return flip
}

// cutRounds returns a round separation k such that h*dt >= lim, in float64
// arithmetic, for every dt >= k. With h = (tw[a.Z]+twMin)/2, every event
// at least k rounds after a has a time cost, and so a pair weight, of at
// least lim (float rounding is monotone). It returns MaxInt/2 when no
// useful k exists, which leaves the scan uncut.
func cutRounds(h, lim float64) int {
	q := lim / h
	if !(h > 0 && q < 1<<30) {
		return math.MaxInt / 2
	}
	k := max(int(math.Ceil(q)), 0)
	for float64(k)*h < lim {
		k++
	}
	return k
}

// instance fills the matching tables of the cluster sub (indices into
// events, the current shot) and returns them as an instance.
//
// Every entry holds the space+time cost of its own ordered pair (the
// Dijkstra row of its first event), not a mirrored copy of the upper
// triangle. Under device-profile priors the Dijkstra table is not exactly
// symmetric: at d=7 a drift profile's dist[a][b] and dist[b][a] differ in
// the last bit in 64-130 of the 625 entries (20 seeds checked). The 2-opt
// pass reads both orientations, so a mirrored table would move its tie
// decisions, and with them predicted flips. The time cost is symmetric bit
// for bit and is computed once per pair.
func (s *scratch) instance(t *spaceTable, events []Event, sub []int32) matching.Instance {
	m := len(sub)
	if cap(s.bound) < m {
		s.bound = make([]float64, m)
	}
	if cap(s.pair) < m*m {
		s.pair = make([]float64, m*m)
	}
	pair, bound := s.pair[:m*m], s.bound[:m]
	stride, dist, tw := t.nz+1, t.dist, t.tw
	for a, ia := range sub {
		ea := events[ia]
		bound[a] = s.bw[ia]
		for b := a + 1; b < m; b++ {
			eb := events[sub[b]]
			tc := timeCost(tw, ea, eb)
			pair[a*m+b] = dist[ea.Z*stride+eb.Z] + tc
			pair[b*m+a] = dist[eb.Z*stride+ea.Z] + tc
		}
	}
	return matching.Instance{N: m, Pair: pair, Boundary: bound}
}

// grow sizes the scratch arenas for an n-event shot.
func (s *scratch) grow(n int) {
	if cap(s.bw) < n {
		s.bw = make([]float64, n)
		s.parent = make([]int32, n)
		s.root = make([]int32, n)
		s.done = make([]bool, n)
		s.sub = make([]int32, 0, n)
	}
}

// DecodeLanes decodes lanes [lo, hi) of the collector, lane i's predicted
// flip in bit i and bits outside the range 0 — the layout of the batch
// simulator's observable words, so batched prediction and ground truth
// compare with one XOR. The call takes one scratch arena from the table
// for all its lanes. Concurrent calls may decode disjoint lane ranges of
// one collector, or different collectors, through one Decoder.
func (d *Decoder) DecodeLanes(c *BatchCollector, lo, hi int) uint64 {
	s := d.tab.free.scratch.get()
	var out uint64
	for lane := lo; lane < hi; lane++ {
		if s.decode(d.tab, c.lanes[lane]) != 0 {
			out |= 1 << uint(lane)
		}
	}
	d.tab.free.scratch.put(s)
	return out
}
