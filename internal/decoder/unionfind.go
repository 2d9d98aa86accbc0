package decoder

// UnionFind is a weighted-growth union-find decoder (Delfosse–Nickerson
// style) over a fixed decoding graph. Decode cost is near-linear in the
// size of the grown region around the syndrome, not in the graph, so a
// sparse defect set on a large lattice decodes in microseconds where
// matching decoders pay at least O(defects²).
//
// A UnionFind holds per-graph scratch arrays and is NOT safe for
// concurrent use; give each worker its own instance (they can all share
// one *Graph). Scratch is recycled across calls with epoch stamps, so a
// Decode touches only the arrays' used entries. All per-node state —
// cluster, boundary list, member list, erasure CSR range, extent and
// extraction stamp — is packed into one 64-byte record, so the
// pointer-chasing hot loops touch one cache line per node.
type UnionFind struct {
	g *Graph

	// node[v] is all state of node v (see ufNode).
	node []ufNode

	// Edge growth state: rem[e] counts the half-steps of growth edge e
	// still needs before it is fully grown (in the erasure), starting from
	// its target 2·weight, with bit 15 (untouched) set while the edge has
	// had no support this decode. Zero means fully grown. Kept deliberately
	// narrow — two bytes per edge — so the random-access loads of the
	// growth hot loop stay cache-resident; edges that gained support are
	// listed in dirty and restored at the start of the next decode instead
	// of being epoch-stamped.
	rem   []uint16
	dirty []int32

	// sweeps counts the growth sweeps of the last Decode; a pure-erasure
	// syndrome (every defect inside an even-parity erased component)
	// leaves it at 0 — the peeling-only fast path.
	sweeps int

	// Boundary lists: cluster members that may still have ungrown
	// incident edges, kept as arena linked lists headed at the root
	// (ufNode.bndHead/bndTail), so a union concatenates in O(1).
	bnd []bndEntry

	// Erasure adjacency, in CSR form rebuilt at peel time: allGrown
	// collects every fully-grown edge with its endpoints in completion
	// order, ufNode.eraDeg counts per-node incidences as they complete,
	// and two scatter passes lay the adjacency out contiguously in csr —
	// so peeling walks exactly the grown region in cache order and never
	// rescans graph adjacency.
	allGrown []grownEdge
	csr      []eraSlot

	// Guard support (incremental window decoding): nodes stamped with the
	// current epoch are barred from growth contact. The first touch of a
	// guarded node — or the first half-step of support on an edge whose
	// far endpoint is guarded — flags a conflict and aborts the decode,
	// recording the guarded node that was hit so the caller can release
	// just the cached cluster owning it (the warm-start sub-window
	// re-decode) instead of rebuilding its whole window. The stamps stay
	// out of the node records, so testing the far endpoint of a freshly
	// supported edge does not load that node's record.
	guardSeen    []uint32
	guardOn      bool
	conflictNode int32

	// First-touch log of every node reached this decode; doubles as the
	// node iteration order for the CSR build.
	touched []int32

	// Component-extraction scratch: candidate roots, contact pairs, and
	// per-candidate counts / selection state of the band filter.
	cands   []int32
	ccPairs [][2]int32
	cNode   []int32
	cDef    []int32
	cCorr   []int32
	cSel    []int32

	// Correction edges of the last decode, in peel emit order.
	corrBuf []int32

	epoch uint32

	// Reusable worklists.
	clusters []int32
	odd      []int32
	grown    []grownEdge
	stack    []int32
	order    []peelStep
}

// ufNode is one node's whole decoder state, one cache line.
type ufNode struct {
	// Cluster: parent link and size (at roots). stamp encodes the epoch
	// the record is valid for (2·epoch when touched, 2·epoch+1 once
	// visited by the peeling pass). flags bit 0 is the cluster defect
	// parity (at roots), bit 1 the node's live defect flag during
	// peeling, bit 2 the grounded flag (at roots): the cluster contains
	// an open-boundary node, which absorbs its parity, so it never
	// grows. Bit 3 marks a root queued on the next sweep's odd list, bit
	// 4 a seeded defect (survives peeling).
	parent, size int32
	stamp, flags uint32

	// Boundary list head and tail (at roots), indices into UnionFind.bnd.
	bndHead, bndTail int32

	// Intrusive per-cluster member list (head/tail valid at roots, next
	// chained through every member, spliced O(1) by union). Extraction
	// walks exactly the candidate clusters' nodes through these instead
	// of filtering the full touched log with a find per node.
	memHead, memTail, memNext int32

	// Erasure degree, and the CSR block end once peel has laid it out
	// (the block is csr[eraStart-eraDeg : eraStart]).
	eraDeg, eraStart int32

	// Extent of the grown region (valid at roots, merged by union): the
	// smallest and largest node id the cluster has touched. Extraction's
	// band filter is an O(1) test per root against these.
	minT, maxT int32

	// comp holds the epoch the node was an extraction candidate root in,
	// with compOf its candidate index.
	comp   uint32
	compOf int32
	_      uint32 // pads the record to 64 bytes
}

// bndEntry is one boundary-list arena cell.
type bndEntry struct {
	node, next int32
}

// eraSlot is one erasure-CSR incidence: a grown edge and its far node.
type eraSlot struct {
	edge, node int32
}

// grownEdge is a fully-grown edge with its endpoints (a = endU, b =
// endV), so merge and peel never reload the endpoint tables.
type grownEdge struct {
	e, a, b int32
}

type peelStep struct {
	node, parentEdge, parentNode int32
}

// untouched flags an edge's rem entry while it has had no support this
// decode.
const untouched = 1 << 15

// NewUnionFind returns a decoder instance over g.
func NewUnionFind(g *Graph) *UnionFind {
	u := &UnionFind{
		g:    g,
		node: make([]ufNode, g.nodes),
		rem:  make([]uint16, g.Edges()),
	}
	for e, t := range g.target {
		u.rem[e] = untouched | t
	}
	return u
}

// GrowthSweeps returns the number of growth sweeps the last Decode (or
// DecodeErased) ran. Zero means the peeling-only fast path: every defect
// was already inside an even-parity erased cluster.
func (u *UnionFind) GrowthSweeps() int { return u.sweeps }

// Components is the post-decode cluster extraction of a DecodeGuarded
// call: the retainable clusters of the final forest, each with its
// touched nodes, its defects, and its correction edges — everything a
// sliding-window caller needs to carry a cluster across a slide
// (persistent-forest mode). A cluster is retainable when it is not
// grounded and every touched node lies inside the caller's band
// [Lo, Hi); the filter is an O(1) extent test per cluster inside the
// extraction, so a decode with nothing retainable costs O(clusters),
// not O(grown region).
//
// Extraction is capacity-bounded: the capacities of NodeOff, Node, Def
// and Corr (set once with Init) are the budget, and a cluster that
// would overflow any of them is skipped — later, smaller clusters may
// still fit. The skip rule is a pure function of the decode, so two
// decoders with the same budgets extract identical sets. A zero-value
// Components has zero budget and extracts nothing (Conflict still
// reports). The flat CSR layout (Off slices index the value slices)
// and the fixed budgets make extraction allocation-free and keep a
// resident Components at a constant footprint.
//
// Clusters appear in root-creation order (the order the surviving
// roots were first touched), members in first-touch order, defects in
// defect-list order, corrections in emit order — all deterministic
// functions of (graph, defects, erasure).
type Components struct {
	// Conflict reports that the decode aborted on guard contact; every
	// other field is empty and the shot's correction is invalid.
	// ConflictNode is the guarded node the growth hit — the warm-start
	// caller's handle for releasing exactly the cached cluster that
	// interacted, rather than its whole forest. It is -1 while the
	// decode is clean.
	Conflict     bool
	ConflictNode int32

	// Lo, Hi is the retention band: a cluster touching any node outside
	// [Lo, Hi) is not extracted. Set by the caller before the decode.
	Lo, Hi int32

	NodeOff []int32 // len N+1; cluster i's touched nodes are Node[NodeOff[i]:NodeOff[i+1]]
	Node    []int32
	DefOff  []int32
	Def     []int32
	CorrOff []int32
	Corr    []int32
}

// Init sets the retention band and allocates the extraction arrays at
// their fixed budgets: at most `clusters` clusters, `nodes` touched
// nodes, `defs` defects and `corrs` correction edges in total.
func (c *Components) Init(lo, hi int32, clusters, nodes, defs, corrs int) {
	c.Lo, c.Hi = lo, hi
	c.NodeOff = make([]int32, 0, clusters+1)
	c.DefOff = make([]int32, 0, clusters+1)
	c.CorrOff = make([]int32, 0, clusters+1)
	c.Node = make([]int32, 0, nodes)
	c.Def = make([]int32, 0, defs)
	c.Corr = make([]int32, 0, corrs)
}

// N returns the cluster count of the extraction.
func (c *Components) N() int {
	if len(c.NodeOff) == 0 {
		return 0
	}
	return len(c.NodeOff) - 1
}

// reset empties the extraction, keeping the band and the budgets.
func (c *Components) reset() {
	c.Conflict = false
	c.ConflictNode = -1
	c.NodeOff = c.NodeOff[:0]
	c.Node = c.Node[:0]
	c.DefOff = c.DefOff[:0]
	c.Def = c.Def[:0]
	c.CorrOff = c.CorrOff[:0]
	c.Corr = c.Corr[:0]
}

// touch makes node v a parity-0 singleton cluster for the current
// epoch, with v itself on its boundary list; open-boundary nodes start
// (and stay) grounded. The caller has checked that v is untouched.
func (u *UnionFind) touch(v int32) {
	idx := int32(len(u.bnd))
	u.bnd = append(u.bnd, bndEntry{node: v, next: -1})
	var flags uint32
	if u.g.bnd != nil && u.g.bnd[v] {
		flags = 4
	}
	u.node[v] = ufNode{
		parent: v, size: 1, stamp: u.epoch << 1, flags: flags,
		bndHead: idx, bndTail: idx,
		memHead: v, memTail: v, memNext: -1,
		minT: v, maxT: v,
	}
	u.touched = append(u.touched, v)
	u.clusters = append(u.clusters, v)
}

// find returns the root of v's cluster with path compression.
func (u *UnionFind) find(v int32) int32 {
	nd := u.node
	for nd[v].parent != v {
		nd[v].parent = nd[nd[v].parent].parent
		v = nd[v].parent
	}
	return v
}

// Decode grows clusters around the defects until every cluster holds an
// even number of them, then peels the grown region into a correction,
// calling emit once per correction edge. The defect list must be the
// syndrome of some error pattern (even total parity on a closed graph);
// emit receives each edge at most once, in a deterministic order that
// depends only on the defect list.
func (u *UnionFind) Decode(defects []int, emit func(edge int)) {
	u.DecodeErased(defects, nil, emit)
}

// DecodeErased is Decode with erasure information: the listed edges are
// known fault locations (leaked or erased qubits) and enter the erasure
// at full support before any growth. Clusters whose defects are already
// paired inside the erased components decode by peeling alone; only the
// odd remainder grows. Erased edges may be emitted in the correction
// even when no cluster grows.
func (u *UnionFind) DecodeErased(defects, erased []int, emit func(edge int)) {
	u.run(defects, erased, nil)
	for _, e := range u.corrBuf {
		emit(int(e))
	}
}

// DecodeGuarded is the incremental-window entry point: DecodeErased with
// the correction appended to corr (returned re-sliced, so a caller-owned
// buffer makes the steady state allocation-free), an optional guard node
// set, and an optional post-decode cluster extraction into comps.
//
// Guard nodes are the touched region of clusters a caller cached from an
// earlier, disjoint decode. If growth touches a guarded node — or puts
// the first half-step of support on an edge one of whose endpoints is
// guarded — the cached clusters would have interacted with this
// syndrome: the decode aborts, comps.Conflict is set, and ok is false
// (the returned corr is empty). Callers recover by re-decoding the full
// defect set without a guard. Defects themselves must not be guarded.
//
// When comps is non-nil and the decode completes, comps receives the
// cluster extraction (see Components).
func (u *UnionFind) DecodeGuarded(defects, erased []int, guard []int32, corr []int32, comps *Components) ([]int32, bool) {
	if comps != nil {
		comps.reset()
	}
	if !u.run(defects, erased, guard) {
		if comps != nil {
			comps.Conflict = true
			comps.ConflictNode = u.conflictNode
		}
		return corr[:0], false
	}
	if comps != nil {
		u.extract(comps)
	}
	return append(corr, u.corrBuf...), true
}

// run is the shared decode core: seeds, grows, merges and peels into
// u.corrBuf. It returns false when the guard flags a conflict (the
// scratch is left mid-decode; the next epoch bump invalidates it all).
func (u *UnionFind) run(defects, erased []int, guard []int32) bool {
	u.sweeps = 0
	u.conflictNode = -1
	u.corrBuf = u.corrBuf[:0]
	u.touched = u.touched[:0]
	u.clusters = u.clusters[:0]
	g := u.g
	rem := u.rem
	// Restore the edges the previous decode (including an aborted guarded
	// one) gave support — touching only the edges it actually grew.
	for _, e := range u.dirty {
		rem[e] = untouched | g.target[e]
	}
	u.dirty = u.dirty[:0]
	if len(defects) == 0 {
		return true
	}
	u.bumpEpoch()
	epoch := u.epoch
	nd := u.node
	u.guardOn = len(guard) > 0
	if u.guardOn {
		if u.guardSeen == nil {
			u.guardSeen = make([]uint32, g.nodes)
		}
		for _, v := range guard {
			u.guardSeen[v] = epoch
		}
	}
	u.grown = u.grown[:0]
	u.allGrown = u.allGrown[:0]
	u.bnd = u.bnd[:0]
	for _, d := range defects {
		v := int32(d)
		if g.bnd != nil && g.bnd[v] {
			panic("decoder: boundary node cannot be a defect")
		}
		if u.isGuarded(v) {
			panic("decoder: guarded node cannot be a defect")
		}
		if nd[v].stamp>>1 == epoch {
			panic("decoder: duplicate defect")
		}
		u.touch(v)
		nd[v].flags = 19 // cluster parity odd + live defect + seeded defect (bit 4, survives peel)
	}
	// Seed the erasure: every erased edge is fully grown from the start,
	// its endpoints absorbed and united, exactly as if growth had crossed
	// it — so the growth loop and the peeling pass need no special cases.
	for _, e := range erased {
		ee := int32(e)
		if rem[ee] == 0 {
			continue // duplicate erased edge
		}
		rem[ee] = 0
		u.dirty = append(u.dirty, ee)
		a, b := g.endU[ee], g.endV[ee]
		if u.isGuarded(a) || u.isGuarded(b) {
			if u.isGuarded(a) {
				u.conflictNode = a
			} else {
				u.conflictNode = b
			}
			return false
		}
		u.absorb(a) // cannot conflict: neither endpoint is guarded
		u.absorb(b)
		u.eraAdd(grownEdge{ee, a, b})
		ra, rb := u.find(a), u.find(b)
		if ra != rb {
			u.union(ra, rb)
		}
	}
	off, adj := g.off, g.adj
	guardOn, guardSeen := u.guardOn, u.guardSeen
	// Collect the initially-odd roots (in first-touch order —
	// deterministic). Grounded clusters (those holding an open-boundary
	// node) never count as odd: the boundary absorbs their parity, so
	// they stop growing. Across sweeps the odd list is maintained
	// incrementally: a cluster can only be odd after a merge sweep if it
	// swallowed a previously-odd cluster (odd+odd cancels, even clusters
	// neither grow nor change parity on their own), so re-deriving the
	// next sweep's odd roots from the previous list — instead of
	// rescanning every cluster ever created — keeps the collect cost
	// proportional to the live frontier.
	u.odd = u.odd[:0]
	for _, r := range u.clusters {
		if u.find(r) == r && nd[r].flags&5 == 1 {
			u.odd = append(u.odd, r)
		}
	}
	// The first pass fuses the leading sweeps no edge can complete in.
	// Every unerased edge still needs its full target of at least 2·minW
	// half-steps, and a sweep gives an edge at most two (one per endpoint:
	// a node sits on at most one boundary list), so sweeps 1…minW−1 merge
	// nothing and leave the odd list and boundary lists as they were.
	// Sweeps 1…minW therefore visit the same (node, slot) pairs in the
	// same order; one pass adding minW half-steps per visit reaches the
	// state sweep minW would, completing the same edges in the same
	// order. Later sweeps add one half-step per visit.
	inc := uint16(g.minW)
	for len(u.odd) > 0 {
		// Growth sweep: every ungrown edge incident to an odd cluster's
		// boundary nodes gains inc half-steps of support. Edges reaching
		// full support (2·weight) queue a merge; a node whose incident
		// edges are all fully grown leaves the boundary for good.
		u.sweeps += int(inc)
		u.grown = u.grown[:0]
		bnd := u.bnd
		advanced := false
		for _, r := range u.odd {
			rn := &nd[r]
			rn.flags &^= 8
			var keptHead, keptTail int32 = -1, -1
			for idx := rn.bndHead; idx >= 0; {
				v := bnd[idx].node
				next := bnd[idx].next
				open := false
				for _, s := range adj[off[v]:off[v+1]] {
					left := rem[s.edge]
					if left == 0 {
						continue
					}
					if left&untouched != 0 {
						if far := s.far >> 1; guardOn && guardSeen[far] == epoch {
							// First support on an edge into the guarded
							// region: the cached cluster on the far side
							// would have contributed support of its own.
							// Separate sweeps would have hit it in the
							// first of the fused ones.
							u.sweeps -= int(inc) - 1
							u.conflictNode = far
							return false
						}
						u.dirty = append(u.dirty, s.edge)
						left &^= untouched
					}
					left -= inc
					rem[s.edge] = left
					advanced = true
					if left != 0 {
						open = true
					} else if s.far&1 == 0 {
						u.grown = append(u.grown, grownEdge{s.edge, v, s.far >> 1})
					} else {
						u.grown = append(u.grown, grownEdge{s.edge, s.far >> 1, v})
					}
				}
				if open {
					if keptTail < 0 {
						keptHead = idx
					} else {
						bnd[keptTail].next = idx
					}
					keptTail = idx
					bnd[idx].next = -1
				}
				idx = next
			}
			rn.bndHead, rn.bndTail = keptHead, keptTail
		}
		if !advanced {
			// Cannot happen for a valid syndrome on a connected graph:
			// an odd cluster always has a boundary to grow.
			panic("decoder: growth stalled with odd clusters")
		}
		inc = 1
		// Merge sweep, in grow order: absorb the endpoints, record the
		// erasure adjacency and unite the endpoint clusters.
		for _, ge := range u.grown {
			if u.absorb(ge.a) || u.absorb(ge.b) {
				return false
			}
			u.eraAdd(ge)
			ra, rb := u.find(ge.a), u.find(ge.b)
			if ra != rb {
				u.union(ra, rb)
			}
		}
		// Re-derive the odd roots from the previous list (see above),
		// deduplicating merged roots with flag bit 3 — set while a root
		// is queued, cleared as the growth sweep picks it up.
		next := u.odd[:0]
		for _, r := range u.odd {
			rr := u.find(r)
			if nd[rr].flags&13 == 1 {
				nd[rr].flags |= 8
				next = append(next, rr)
			}
		}
		u.odd = next
	}
	u.peel(defects)
	return true
}

// isGuarded reports whether node v is guarded in the current decode.
func (u *UnionFind) isGuarded(v int32) bool {
	return u.guardOn && u.guardSeen[v] == u.epoch
}

// eraAdd records fully-grown edge ge, whose endpoints are touched: their
// erasure degrees for the CSR build at peel time, and the edge itself in
// completion order.
func (u *UnionFind) eraAdd(ge grownEdge) {
	u.node[ge.a].eraDeg++
	u.node[ge.b].eraDeg++
	u.allGrown = append(u.allGrown, ge)
}

// absorb makes sure node v belongs to some cluster: a node first reached
// by cluster growth becomes a parity-0 singleton boundary node, and the
// following union folds it into the grower. It reports a guard conflict
// on the first contact with a guarded node.
func (u *UnionFind) absorb(v int32) bool {
	n := &u.node[v]
	if n.stamp>>1 == u.epoch {
		return false
	}
	if u.isGuarded(v) {
		u.conflictNode = v
		return true
	}
	u.touch(v)
	return false
}

// union merges the clusters rooted at ra and rb (by size, ties to the
// smaller id), adding parities (grounded flags OR), merging grown-region
// extents, and splicing member and boundary lists in O(1).
func (u *UnionFind) union(ra, rb int32) {
	a, b := &u.node[ra], &u.node[rb]
	if a.size < b.size || (a.size == b.size && rb < ra) {
		ra, rb = rb, ra
		a, b = b, a
	}
	b.parent = ra
	a.size += b.size
	a.flags ^= b.flags & 1
	a.flags |= b.flags & 4
	a.minT = min(a.minT, b.minT)
	a.maxT = max(a.maxT, b.maxT)
	u.node[a.memTail].memNext = b.memHead
	a.memTail = b.memTail
	if b.bndHead >= 0 {
		if a.bndTail < 0 {
			a.bndHead = b.bndHead
		} else {
			u.bnd[a.bndTail].next = b.bndHead
		}
		a.bndTail = b.bndTail
	}
}

// peel lays the grown (erasure) adjacency out in CSR form, walks a
// spanning forest of it and peels it leaf-first: a leaf carrying a
// defect contributes its tree edge to the correction and hands its
// defect to the parent. A closed cluster has even parity, so its defects
// cancel pairwise inside the forest; a grounded cluster roots its tree
// at an open-boundary node, so any unpaired defect drains onto the
// boundary and is absorbed there. Correction edges land in u.corrBuf.
func (u *UnionFind) peel(defects []int) {
	nd := u.node
	// CSR build: offsets in first-touch node order, then one scatter
	// pass over the grown edges (eraStart ends one past each node's
	// block; the block start is eraStart-eraDeg).
	pos := int32(0)
	for _, v := range u.touched {
		nd[v].eraStart = pos
		pos += nd[v].eraDeg
	}
	n := int(pos)
	if cap(u.csr) < n {
		u.csr = make([]eraSlot, n)
	} else {
		u.csr = u.csr[:n]
	}
	for _, ge := range u.allGrown {
		a, b := &nd[ge.a], &nd[ge.b]
		u.csr[a.eraStart] = eraSlot{edge: ge.e, node: ge.b}
		a.eraStart++
		u.csr[b.eraStart] = eraSlot{edge: ge.e, node: ge.a}
		b.eraStart++
	}
	visited := u.epoch<<1 | 1
	u.order = u.order[:0]
	// Boundary nodes that joined the erasure root their trees first (in
	// ascending node order — deterministic), so every grounded cluster's
	// DFS root is a boundary node.
	for _, b := range u.g.bndList {
		if nd[b].stamp>>1 == u.epoch && nd[b].eraDeg > 0 {
			u.peelRoot(b, visited)
		}
	}
	for _, d := range defects {
		u.peelRoot(int32(d), visited)
	}
	for i := len(u.order) - 1; i >= 0; i-- {
		step := u.order[i]
		if step.parentEdge < 0 || nd[step.node].flags&2 == 0 {
			continue
		}
		u.corrBuf = append(u.corrBuf, step.parentEdge)
		nd[step.node].flags &^= 2
		nd[step.parentNode].flags ^= 2
	}
}

// peelRoot grows one DFS tree of the erasure forest from root (skipped
// if the root was already claimed by an earlier tree). Every node it
// reaches is touched, so its CSR block is valid (empty when the node
// has no grown edge).
func (u *UnionFind) peelRoot(root int32, visited uint32) {
	nd := u.node
	if nd[root].stamp == visited {
		return
	}
	nd[root].stamp = visited
	u.stack = append(u.stack[:0], root)
	u.order = append(u.order, peelStep{node: root, parentEdge: -1, parentNode: -1})
	for len(u.stack) > 0 {
		v := u.stack[len(u.stack)-1]
		u.stack = u.stack[:len(u.stack)-1]
		end := nd[v].eraStart
		for _, s := range u.csr[end-nd[v].eraDeg : end] {
			w := s.node
			if nd[w].stamp == visited {
				continue
			}
			nd[w].stamp = visited
			u.order = append(u.order, peelStep{node: w, parentEdge: s.edge, parentNode: v})
			u.stack = append(u.stack, w)
		}
	}
}

// extract materializes the retainable clusters (see Components): not
// grounded, grown region inside [c.Lo, c.Hi), isolated from every
// non-retained cluster, and fitting the remaining array budgets. The
// candidate test runs over the live roots using the extents tracked
// through union — O(clusters) — and every per-node pass afterwards
// walks only the candidates' member lists, never the full touched
// region, so a dense decode pays for extraction in proportion to what
// it retains. The peel pass leaves parent links and flags intact, so
// find() still recovers the final partition.
//
// The isolation filter is what makes warm-start retention pay in the
// dense regime: an incident edge that carried support this decode
// whose far endpoint settled in a different cluster marks growth
// contact — when the non-retained side re-decodes after the slide it
// regrows the same support and a guard conflict is certain, so a
// candidate in mixed contact is dropped up front instead of buying a
// release wave later. Contact between two candidates is harmless (both
// sides are stripped and guarded together), but a dropped candidate
// becomes non-candidate contact for its neighbours, so recorded
// candidate–candidate pairs cascade to a fixpoint (order-independent:
// drops are monotone).
func (u *UnionFind) extract(c *Components) {
	nd := u.node
	u.cands = u.cands[:0]
	for _, r := range u.clusters {
		if u.find(r) != r {
			continue
		}
		if nd[r].flags&4 == 0 && nd[r].minT >= c.Lo && nd[r].maxT < c.Hi {
			u.cands = append(u.cands, r)
		}
	}
	if len(u.cands) == 0 {
		return
	}
	n := len(u.cands)
	if cap(u.cDef) < n {
		u.cNode = make([]int32, n)
		u.cDef = make([]int32, n)
		u.cCorr = make([]int32, n)
		u.cSel = make([]int32, n)
	} else {
		u.cNode = u.cNode[:n]
		u.cDef = u.cDef[:n]
		u.cCorr = u.cCorr[:n]
		u.cSel = u.cSel[:n]
	}
	for i, r := range u.cands {
		nd[r].comp = u.epoch
		nd[r].compOf = int32(i)
		u.cCorr[i] = 0
	}
	// Per-candidate correction counts (a correction edge belongs to its
	// endpoint's cluster; peel only emits edges inside the erasure, so
	// both endpoints agree).
	for _, e := range u.corrBuf {
		if r := u.find(u.g.endU[e]); nd[r].comp == u.epoch {
			u.cCorr[nd[r].compOf]++
		}
	}
	// Streaming selection in candidate order: the O(1) budget test on
	// the cluster size goes first, so only candidates that could still
	// fit walk their member list — one walk that fuses the defect count
	// with the isolation scan. A candidate rejected here (budget or
	// contact) is demoted to non-candidate on the spot, so later
	// candidates see contact with it for what it is: contact with a
	// cluster that will re-decode after the slide.
	g := u.g
	u.ccPairs = u.ccPairs[:0]
	var nodes, defs, corrs int32
	m := 0
	nodeCap, defCap, corrCap := int32(cap(c.Node)), int32(cap(c.Def)), int32(cap(c.Corr))
	for i, r := range u.cands {
		u.cSel[i] = -1
		sz := nd[r].size
		if m+2 > cap(c.NodeOff) || nodes+sz > nodeCap || corrs+u.cCorr[i] > corrCap {
			nd[r].comp = u.epoch - 1
			continue
		}
		dfs := int32(0)
		drop := false
	scan:
		for v := nd[r].memHead; v >= 0; v = nd[v].memNext {
			if nd[v].flags&16 != 0 {
				dfs++
			}
			for _, s := range g.adj[g.off[v]:g.off[v+1]] {
				if u.rem[s.edge]&untouched != 0 {
					continue
				}
				nb := s.far >> 1
				if nd[nb].stamp>>1 != u.epoch {
					continue // support into free space, not cluster contact
				}
				rn := u.find(nb)
				if rn == r {
					continue
				}
				if nd[rn].comp == u.epoch {
					u.ccPairs = append(u.ccPairs, [2]int32{r, rn})
					continue
				}
				drop = true
				break scan
			}
		}
		if drop || defs+dfs > defCap {
			nd[r].comp = u.epoch - 1
			continue
		}
		u.cDef[i] = dfs
		u.cSel[i] = int32(m)
		m++
		nodes += sz
		defs += dfs
		corrs += u.cCorr[i]
	}
	if m == 0 {
		return
	}
	// Candidate–candidate contact pairs cascade to a fixpoint: a pair
	// whose one side has since been rejected takes the other side down
	// with it (order-independent — drops are monotone). Contact between
	// two retained candidates stays harmless: both sides are stripped
	// and guarded together.
	dropped := false
	for changed := true; changed; {
		changed = false
		for _, p := range u.ccPairs {
			ca, cb := nd[p[0]].comp == u.epoch, nd[p[1]].comp == u.epoch
			if ca == cb {
				continue
			}
			if ca {
				nd[p[0]].comp = u.epoch - 1
			} else {
				nd[p[1]].comp = u.epoch - 1
			}
			changed = true
			dropped = true
		}
	}
	if dropped {
		m = 0
		for i, r := range u.cands {
			if u.cSel[i] < 0 {
				continue
			}
			if nd[r].comp != u.epoch {
				u.cSel[i] = -1
				continue
			}
			u.cSel[i] = int32(m)
			m++
		}
		if m == 0 {
			return
		}
	}
	// CSR offsets of the selected clusters, then one member-list walk
	// per cluster scattering nodes and defects together, and a pass
	// over the correction buffer — with the count arrays recycled as
	// write cursors.
	c.NodeOff = append(c.NodeOff, 0)
	c.DefOff = append(c.DefOff, 0)
	c.CorrOff = append(c.CorrOff, 0)
	for i, r := range u.cands {
		s := u.cSel[i]
		if s < 0 {
			continue
		}
		c.NodeOff = append(c.NodeOff, c.NodeOff[s]+nd[r].size)
		c.DefOff = append(c.DefOff, c.DefOff[s]+u.cDef[i])
		c.CorrOff = append(c.CorrOff, c.CorrOff[s]+u.cCorr[i])
		u.cNode[i] = c.NodeOff[s]
		u.cDef[i] = c.DefOff[s]
		u.cCorr[i] = c.CorrOff[s]
	}
	c.Node = c.Node[:c.NodeOff[len(c.NodeOff)-1]]
	c.Def = c.Def[:c.DefOff[len(c.DefOff)-1]]
	c.Corr = c.Corr[:c.CorrOff[len(c.CorrOff)-1]]
	for i, r := range u.cands {
		if u.cSel[i] < 0 {
			continue
		}
		for v := nd[r].memHead; v >= 0; v = nd[v].memNext {
			c.Node[u.cNode[i]] = v
			u.cNode[i]++
			if nd[v].flags&16 != 0 {
				c.Def[u.cDef[i]] = v
				u.cDef[i]++
			}
		}
	}
	for _, e := range u.corrBuf {
		r := u.find(u.g.endU[e])
		if nd[r].comp != u.epoch {
			continue
		}
		if i := nd[r].compOf; u.cSel[i] >= 0 {
			c.Corr[u.cCorr[i]] = e
			u.cCorr[i]++
		}
	}
}

// bumpEpoch advances the scratch epoch, clearing the node records on
// wraparound of the 30-bit epoch so stale stamps can never collide.
func (u *UnionFind) bumpEpoch() {
	u.epoch++
	if u.epoch >= 1<<30 {
		clear(u.node)
		clear(u.guardSeen)
		u.epoch = 1
	}
}
