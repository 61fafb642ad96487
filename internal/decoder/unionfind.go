package decoder

import (
	"sync"

	"repro/internal/surfacecode"
)

// UnionFind is a Union-Find decoder (Delfosse-Nickerson style) over the
// explicit space-time detector graph. The paper's control-processor context
// (LILLIPUT, AFS, union-find hardware decoders) motivates having an almost-
// linear-time engine next to MWPM: clusters grow in half-edge increments
// around defects until every cluster has even parity or touches the lattice
// boundary, then each cluster is peeled to extract a correction, whose
// logical-crossing parity is the decode result.
//
// The detector graph is immutable per (layout, kind, rounds) and shared
// between instances through a content-keyed cache, so construction is
// O(lookup) after the first. All per-decode mutable state lives in
// epoch-stamped arenas owned by the instance and reused across calls, which
// makes steady-state decoding allocation-free — and therefore a UnionFind
// instance must NOT be shared by concurrent goroutines; give each worker its
// own (cheap) instance.
type UnionFind struct {
	g *ufGraph

	// Per-decode state, valid when the matching stamp equals epoch.
	epoch  uint32
	vstamp []uint32 // per vertex
	estamp []uint32 // per edge: support[] authoritative for this decode

	parent   []int32
	size     []int32
	parity   []uint8 // defect count mod 2 per root
	boundary []int32 // fully grown boundary edge id per root, -1 if none
	defect   []bool
	verts    [][]int32 // vertex list per root
	support  []uint8   // per edge: 0, 1, 2 (2 = fully grown)

	// Root-dedup marker used by odds/rebuildActive, bumped per scan.
	mepoch uint32
	mark   []uint32

	// Reusable lists.
	active, odd, grown []int32

	// Peeling scratch, valid when pstamp equals pepoch (bumped per decode).
	pepoch   uint32
	pstamp   []uint32
	parentOf []int32
	pdef     []bool
	order    []treeEdge
}

type treeEdge struct {
	vertex int32
	edge   int32 // edge to parent
}

type ufEdge struct {
	u, v  int32 // v == -1 for boundary edges
	cross uint8
}

// ufGraph is the immutable space-time detector graph of one
// (layout distance, stabilizer kind, rounds) combination.
type ufGraph struct {
	nz, rounds, nV int // real vertices: nz * (rounds+1)
	edges          []ufEdge
	vertexEdges    [][]int32
}

type ufGraphKey struct {
	distance int
	kind     surfacecode.Kind
	rounds   int
}

var ufGraphs sync.Map // ufGraphKey -> *ufGraph

func sharedUFGraph(l *surfacecode.Layout, kind surfacecode.Kind, rounds int) *ufGraph {
	key := ufGraphKey{l.Distance, kind, rounds}
	if g, ok := ufGraphs.Load(key); ok {
		return g.(*ufGraph)
	}
	g := buildUFGraph(l, kind, rounds)
	actual, _ := ufGraphs.LoadOrStore(key, g)
	return actual.(*ufGraph)
}

func buildUFGraph(l *surfacecode.Layout, kind surfacecode.Kind, rounds int) *ufGraph {
	g := &ufGraph{nz: l.NumKind(kind), rounds: rounds}
	g.nV = g.nz * (rounds + 1)
	g.vertexEdges = make([][]int32, g.nV)

	isLogical := make([]bool, l.NumData)
	for _, q := range l.LogicalSupport(kind) {
		isLogical[q] = true
	}
	addEdge := func(a, b int32, cross uint8) {
		id := int32(len(g.edges))
		g.edges = append(g.edges, ufEdge{a, b, cross})
		g.vertexEdges[a] = append(g.vertexEdges[a], id)
		if b >= 0 {
			g.vertexEdges[b] = append(g.vertexEdges[b], id)
		}
	}
	node := func(z, r int) int32 { return int32((r-1)*g.nz + z) }

	for r := 1; r <= rounds+1; r++ {
		// Space and boundary edges within the layer.
		for q := 0; q < l.NumData; q++ {
			var cross uint8
			if isLogical[q] {
				cross = 1
			}
			zs := l.DataKindStabs(kind, q)
			switch len(zs) {
			case 2:
				addEdge(node(l.KindOrdinal(kind, zs[0]), r),
					node(l.KindOrdinal(kind, zs[1]), r), cross)
			case 1:
				addEdge(node(l.KindOrdinal(kind, zs[0]), r), -1, cross)
			}
		}
		// Time edges to the next layer.
		if r <= rounds {
			for z := 0; z < g.nz; z++ {
				addEdge(node(z, r), node(z, r+1), 0)
			}
		}
	}
	return g
}

// NewUnionFind builds the decoder for memory experiments with the given
// number of syndrome extraction rounds (the detector graph has rounds+1
// layers, the last from the transversal data measurement).
func NewUnionFind(l *surfacecode.Layout, kind surfacecode.Kind, rounds int) *UnionFind {
	g := sharedUFGraph(l, kind, rounds)
	nE := len(g.edges)
	return &UnionFind{
		g:        g,
		vstamp:   make([]uint32, g.nV),
		estamp:   make([]uint32, nE),
		parent:   make([]int32, g.nV),
		size:     make([]int32, g.nV),
		parity:   make([]uint8, g.nV),
		boundary: make([]int32, g.nV),
		defect:   make([]bool, g.nV),
		verts:    make([][]int32, g.nV),
		support:  make([]uint8, nE),
		mark:     make([]uint32, g.nV),
		pstamp:   make([]uint32, g.nV),
		parentOf: make([]int32, g.nV),
		pdef:     make([]bool, g.nV),
	}
}

// ensure lazily initializes vertex v's union-find state for the current
// decode epoch.
func (u *UnionFind) ensure(v int32) {
	if u.vstamp[v] != u.epoch {
		u.vstamp[v] = u.epoch
		u.parent[v] = v
		u.size[v] = 1
		u.parity[v] = 0
		u.boundary[v] = -1
		u.defect[v] = false
		u.verts[v] = u.verts[v][:0]
	}
}

func (u *UnionFind) find(v int32) int32 {
	u.ensure(v)
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

func (u *UnionFind) union(a, b int32) int32 {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.parity[ra] ^= u.parity[rb]
	if u.boundary[ra] < 0 {
		u.boundary[ra] = u.boundary[rb]
	}
	u.verts[ra] = append(u.verts[ra], u.verts[rb]...)
	u.verts[rb] = u.verts[rb][:0]
	return ra
}

// defectOf reports whether v carries a defect in the current epoch.
func (u *UnionFind) defectOf(v int32) bool {
	return u.vstamp[v] == u.epoch && u.defect[v]
}

// supportOf returns edge id's growth support in the current decode, zero
// for an edge not written since the epoch began.
func (u *UnionFind) supportOf(id int32) uint8 {
	if u.estamp[id] == u.epoch {
		return u.support[id]
	}
	return 0
}

func (u *UnionFind) setSupport(id int32, s uint8) {
	u.estamp[id] = u.epoch
	u.support[id] = s
}

// bumpEpoch starts a fresh decode; on uint32 wraparound the stamp
// arrays are cleared so stale stamps can never collide.
func (u *UnionFind) bumpEpoch() {
	u.epoch++
	u.pepoch++
	if u.epoch == 0 || u.pepoch == 0 {
		clear(u.vstamp)
		clear(u.estamp)
		clear(u.pstamp)
		u.epoch, u.pepoch = 1, 1
	}
}

func (u *UnionFind) beginMark() {
	u.mepoch++
	if u.mepoch == 0 {
		clear(u.mark)
		u.mepoch = 1
	}
}

// Decode grows clusters around the detection events and peels a correction.
// It reuses the instance's arenas and is NOT safe for concurrent calls.
func (u *UnionFind) Decode(events []Event) uint8 {
	if len(events) == 0 {
		return 0
	}
	u.bumpEpoch()
	active := u.loadDefects(events)
	active = u.growClusters(active)
	return u.peelAll(active)
}

// loadDefects toggles the events into per-vertex defect state and returns
// the active vertex list in first-occurrence order (duplicate events cancel;
// the vertex stays in the list with even parity, exactly as the historical
// per-call state did).
func (u *UnionFind) loadDefects(events []Event) []int32 {
	active := u.active[:0]
	for _, e := range events {
		v := int32((e.Round-1)*u.g.nz + e.Z)
		u.ensure(v)
		if !u.defect[v] {
			u.defect[v] = true
			u.parity[v] = 1
			u.verts[v] = append(u.verts[v][:0], v)
			active = append(active, v)
		} else {
			u.defect[v] = false
			u.parity[v] = 0
		}
	}
	u.active = active
	return active
}

// growClusters runs the growth loop: every odd, non-boundary cluster grows
// all frontier edges by a half step; fully grown edges merge clusters or
// attach the boundary.
func (u *UnionFind) growClusters(active []int32) []int32 {
	for iter := 0; iter < 4*u.g.nV; iter++ {
		odd := u.odds(active)
		if len(odd) == 0 {
			break
		}
		grown, advanced := u.grownEdges(odd)
		if !advanced {
			break // defensive; cannot happen while boundary edges exist
		}
		u.processGrown(grown)
		active = u.rebuildActive(active)
	}
	return active
}

// odds returns the roots of odd-parity clusters that do not touch the
// boundary, deduplicated in active order.
func (u *UnionFind) odds(active []int32) []int32 {
	out := u.odd[:0]
	u.beginMark()
	for _, v := range active {
		r := u.find(v)
		if u.mark[r] == u.mepoch {
			continue
		}
		u.mark[r] = u.mepoch
		if u.parity[r] == 1 && u.boundary[r] < 0 {
			out = append(out, r)
		}
	}
	u.odd = out
	return out
}

// grownEdges advances the frontier of each odd cluster by one half step,
// returning the edges that became fully grown and whether any support was
// added at all (half-grown edges complete on a later pass, so an empty grown
// list does not mean the algorithm is stuck).
func (u *UnionFind) grownEdges(odd []int32) (grown []int32, advanced bool) {
	out := u.grown[:0]
	for _, r := range odd {
		for _, v := range u.verts[r] {
			for _, id := range u.g.vertexEdges[v] {
				s := u.supportOf(id)
				if s >= 2 {
					continue
				}
				s++
				u.setSupport(id, s)
				advanced = true
				if s == 2 {
					out = append(out, id)
				}
			}
		}
	}
	u.grown = out
	return out, advanced
}

// processGrown merges the endpoints of fully grown edges and records
// boundary attachments.
func (u *UnionFind) processGrown(grown []int32) {
	for _, id := range grown {
		e := u.g.edges[id]
		if e.v < 0 {
			r := u.find(e.u)
			if u.boundary[r] < 0 {
				u.boundary[r] = id
			}
			continue
		}
		u.union(e.u, e.v)
	}
}

// rebuildActive deduplicates the active list down to one entry per root,
// keeping first-occurrence order, in place.
func (u *UnionFind) rebuildActive(active []int32) []int32 {
	next := active[:0]
	u.beginMark()
	for _, v := range active {
		r := u.find(v)
		if u.mark[r] != u.mepoch {
			u.mark[r] = u.mepoch
			next = append(next, r)
		}
	}
	u.active = next
	return next
}

// peelAll extracts a correction from every cluster.
func (u *UnionFind) peelAll(active []int32) uint8 {
	var flip uint8
	for _, v := range active {
		r := u.find(v)
		if len(u.verts[r]) == 0 || u.pstamp[u.verts[r][0]] == u.pepoch {
			continue
		}
		flip ^= u.peel(r)
	}
	return flip
}

// peel builds a spanning tree of the cluster's fully grown edges and peels
// leaves inward, discharging any residual defect through the cluster's
// boundary edge. pstamp doubles as the visited marker shared by all clusters
// of one decode.
func (u *UnionFind) peel(root int32) uint8 {
	// Root the tree at the boundary edge's endpoint when available.
	start := u.verts[root][0]
	if b := u.boundary[root]; b >= 0 {
		start = u.g.edges[b].u
	}
	order := append(u.order[:0], treeEdge{start, -1})
	u.pstamp[start] = u.pepoch
	u.pdef[start] = u.defectOf(start)
	for head := 0; head < len(order); head++ {
		v := order[head].vertex
		for _, id := range u.g.vertexEdges[v] {
			if u.supportOf(id) < 2 {
				continue
			}
			e := u.g.edges[id]
			if e.v < 0 {
				continue
			}
			w := e.u
			if w == v {
				w = e.v
			}
			if u.pstamp[w] == u.pepoch {
				continue
			}
			u.pstamp[w] = u.pepoch
			u.parentOf[w] = v
			u.pdef[w] = u.defectOf(w)
			order = append(order, treeEdge{w, id})
		}
	}
	u.order = order
	// Peel leaves in reverse BFS order.
	var flip uint8
	for i := len(order) - 1; i >= 1; i-- {
		te := order[i]
		if u.pdef[te.vertex] {
			flip ^= u.g.edges[te.edge].cross
			u.pdef[te.vertex] = false
			p := u.parentOf[te.vertex]
			u.pdef[p] = !u.pdef[p]
		}
	}
	if u.pdef[start] {
		if b := u.boundary[root]; b >= 0 {
			flip ^= u.g.edges[b].cross
		}
		// With no boundary edge the cluster parity was even, so a residual
		// defect at the root cannot occur.
	}
	return flip
}

// DecodeLanes decodes lanes [lo, hi) of the collector, returning the
// predicted flips in the corresponding bits. Disjoint lane ranges of one
// collector may be decoded concurrently — by different instances; a single
// instance's arenas are single-threaded.
func (u *UnionFind) DecodeLanes(c *BatchCollector, lo, hi int) uint64 {
	var out uint64
	for lane := lo; lane < hi; lane++ {
		if u.Decode(c.lanes[lane]) != 0 {
			out |= 1 << uint(lane)
		}
	}
	return out
}
