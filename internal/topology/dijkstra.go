package topology

import (
	"sync/atomic"

	"sheriff/internal/pool"
)

// MultiSource holds shortest paths from a designated set of source nodes
// to every node, computed by Dijkstra per source over the graph's CSR
// view. For the migration cost model only rack-to-rack paths matter, so
// running |racks| Dijkstras is far cheaper than cubic Floyd–Warshall on
// large Fat-Trees (the Sec. V.A collapse only needs G(v_i, v_p) between
// racks). Tables are dense and source-rank indexed: row i of dist/parent
// belongs to sources[i], and rank maps node ID → row, so lookups never
// touch a map and the storage is reusable across sweeps.
//
// The three steps of a sweep are separable: Reset binds the source set,
// Reweigh materializes the edge-cost vector, SweepRows runs the searches
// of the rows asked for (SweepRowTo: one row, only as far as the one
// destination the caller will read). The weight vector is retained, so a
// row swept later — against the same weights — is exactly the row a full
// sweep at Reweigh time would have produced. A row that has not been swept
// since the last Reset holds garbage; callers that sweep selectively track
// which rows are current (cost.Model does).
type MultiSource struct {
	g         *Graph
	c         *csr   // g's CSR view as of Reset
	structVer uint64 // g.StructVersion() as of Reset

	n       int
	sources []int32
	rank    []int32    // node ID → row index, -1 when not a source
	tree    []treeNode // len(sources) interleaved (dist, parent) rows of n

	weights []wEdge // interleaved (cost, dst) vector of the last Reweigh
	scratch []*sweepScratch

	searches, settled int // SweepRowTo calls and the nodes they settled
}

// DijkstraFrom computes shortest paths from each source under the edge
// cost. Costs must be non-negative; Inf-cost edges are skipped. The cost
// closure is evaluated once per directed edge per sweep (not once per
// relaxation) to fill a flat weight vector; it must be safe for
// concurrent calls only in the trivial sense that fillWeights runs on the
// calling goroutine. The per-source searches are independent and run on
// the shared worker pool with per-worker reusable scratch.
func DijkstraFrom(g *Graph, sources []int, cost EdgeCost) *MultiSource {
	return DijkstraFromInto(g, sources, cost, nil)
}

// DijkstraFromInto is DijkstraFrom reusing a previous result's storage.
// When prev's tables fit the graph and source count, the sweep is
// allocation-free after warmup; prev's contents are overwritten and the
// returned value is prev itself. Pass nil to allocate fresh tables.
func DijkstraFromInto(g *Graph, sources []int, cost EdgeCost, prev *MultiSource) *MultiSource {
	ms := prev
	if ms == nil {
		ms = &MultiSource{}
	}
	ms.Reset(g, sources)
	ms.Reweigh(cost)
	ms.runSweeps(nil, len(ms.sources))
	return ms
}

// Reset points the tables at a graph and source set, reusing backing
// arrays. No row is swept and the weight vector is not filled. Required
// again after any structural change to the graph.
func (ms *MultiSource) Reset(g *Graph, sources []int) {
	ms.g, ms.c, ms.structVer = g, g.ensureCSR(), g.structVer
	n := g.NumNodes()
	if len(ms.rank) >= n {
		// Clear only the previous sources' entries; the rest is still -1.
		for _, s := range ms.sources {
			if int(s) < len(ms.rank) {
				ms.rank[s] = -1
			}
		}
		ms.rank = ms.rank[:n]
	} else {
		ms.rank = make([]int32, n)
		for i := range ms.rank {
			ms.rank[i] = -1
		}
	}
	ms.n = n
	ms.sources = ms.sources[:0]
	for _, s := range sources {
		ms.sources = append(ms.sources, int32(s))
	}
	for i, s := range ms.sources {
		ms.rank[s] = int32(i)
	}
	ms.tree = ensureTreeNodes(ms.tree, len(sources)*n)
	ms.weights = ensureWEdges(ms.weights, len(ms.c.dstID))
}

// Reweigh refills the retained weight vector from the graph's current
// link state: one cost call per directed edge, no sweeps. Rows swept
// before the call keep describing the old weights until swept again.
func (ms *MultiSource) Reweigh(cost EdgeCost) {
	ms.mustBeBound()
	ms.c.fillWeights(ms.weights, cost)
}

// mustBeBound panics when the graph's wiring changed since Reset: the
// tables index a CSR view that no longer receives bandwidth patches, so
// pricing from it would be silently wrong. Only a caller bug gets here.
func (ms *MultiSource) mustBeBound() {
	if ms.g.structVer != ms.structVer {
		panic("topology: MultiSource reweighed after a structural change without Reset")
	}
}

// ReweighEdges is Reweigh for the named edge IDs only: when the caller
// knows which links' state changed since the vector was last filled, the
// other weights are already what a full Reweigh would write.
func (ms *MultiSource) ReweighEdges(ids []int, cost EdgeCost) {
	ms.mustBeBound()
	for _, id := range ids {
		l := ms.g.loc[id]
		i := ms.c.rowStart[l.node] + l.pos
		ms.weights[i].w = cost(ms.c.edge(int(l.node), i))
	}
}

// SweepRows runs the single-source search of each named row (an index
// into the Reset source list, see Row) against the retained weights.
// Several rows fan out over the shared worker pool; one row runs inline
// on the caller's goroutine, allocation-free. Rows must be distinct.
func (ms *MultiSource) SweepRows(rows []int) { ms.runSweeps(rows, len(rows)) }

// SweepRowTo is the point-to-point form of SweepRows: it runs one row's
// search inline and stops as soon as dst settles, reporting whether it
// did. Afterwards Path, PathEdges and Dist from the row's source to dst
// are bit for bit those of the full row, given weights above zero; the
// row's other entries may be tentative and must not be read. When dst is
// not reached the search has exhausted the source's component, so the row
// is the full row in every entry and stays valid for any destination until
// the weights change.
//
// lower makes the search goal-directed. It must be bound to the same graph,
// have dst's row swept, and price every edge at or below this table's
// weights on a graph whose links cost the same both ways, so that its
// distance from dst to v never exceeds the cost left from v to dst. The
// search then walks one real path first (probe) and settles only nodes that
// could lie on a path no dearer than that one (see sweepTo). With lower
// nil, or dst not one of its sources, the search is the plain stopped one.
func (ms *MultiSource) SweepRowTo(row, dst int, lower *MultiSource) bool {
	sc := ms.scratchFor(0, ms.n, len(ms.c.dstID))
	tree := ms.tree[row*ms.n : (row+1)*ms.n]
	src := ms.sources[row]
	var h []treeNode
	ub := Inf // with no bound, or no path walked, nothing is pruned
	if lower != nil {
		if lower.c != ms.c {
			panic("topology: SweepRowTo lower-bound table is bound to another graph")
		}
		h = lower.row(dst)
	}
	if h != nil {
		// The slack covers the rounding between this path's sum and an
		// equal-cost path's, or lower's sum taken from the other end.
		ub = sc.probe(ms.c, src, int32(dst), ms.weights, h) * (1 + 1e-9)
	}
	ms.searches++
	ms.settled += sc.sweepTo(ms.c, src, int32(dst), ms.weights, tree, h, ub)
	return tree[dst].d < Inf
}

// SearchStats returns how many point-to-point searches (SweepRowTo) the
// table has run and how many nodes they settled in total: the work of the
// traffic plane's routing, as counts that repeat exactly.
func (ms *MultiSource) SearchStats() (searches, settled int) { return ms.searches, ms.settled }

// Row returns the table row of a source node, or -1 when the node is not
// in the source set.
func (ms *MultiSource) Row(src int) int {
	if src < 0 || src >= len(ms.rank) {
		return -1
	}
	return int(ms.rank[src])
}

// runSweeps runs count searches: of rows[i], or of row i when rows is nil
// (every row, without materializing the identity list). Single searches
// run inline so the steady-state path stays allocation-free.
func (ms *MultiSource) runSweeps(rows []int, count int) {
	if count == 0 {
		return
	}
	n, m := ms.n, len(ms.c.dstID)
	if count == 1 {
		ms.sweepRow(ms.scratchFor(0, n, m), rows, 0)
		return
	}
	w := pool.Shared().Workers()
	if w > count {
		w = count
	}
	for k := 0; k < w; k++ {
		ms.scratchFor(k, n, m)
	}
	var next atomic.Int64
	pool.Shared().ForEach(w, func(worker int) {
		sc := ms.scratch[worker]
		for {
			i := int(next.Add(1)) - 1
			if i >= count {
				return
			}
			ms.sweepRow(sc, rows, i)
		}
	})
}

func (ms *MultiSource) sweepRow(sc *sweepScratch, rows []int, i int) {
	if rows != nil {
		i = rows[i]
	}
	sc.sweep(ms.c, ms.sources[i], ms.weights, ms.tree[i*ms.n:(i+1)*ms.n])
}

func (ms *MultiSource) scratchFor(worker, n, m int) *sweepScratch {
	for len(ms.scratch) <= worker {
		ms.scratch = append(ms.scratch, &sweepScratch{})
	}
	sc := ms.scratch[worker]
	sc.ensure(n, m)
	return sc
}

func ensureWEdges(s []wEdge, n int) []wEdge {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]wEdge, n)
}

func ensureTreeNodes(s []treeNode, n int) []treeNode {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]treeNode, n)
}

// row returns the shortest-path-tree row for a source node, or nil when
// the node was not in the source set.
func (m *MultiSource) row(src int) []treeNode {
	if src < 0 || src >= len(m.rank) {
		return nil
	}
	r := m.rank[src]
	if r < 0 {
		return nil
	}
	return m.tree[int(r)*m.n : (int(r)+1)*m.n]
}

// Dist returns the minimal cost from a source node to any node. It
// returns Inf if src was not in the source set or dst is unreachable.
func (m *MultiSource) Dist(src, dst int) float64 {
	t := m.row(src)
	if t == nil || dst < 0 || dst >= m.n {
		return Inf
	}
	return t[dst].d
}

// Path reconstructs one minimal path src → … → dst (inclusive), or nil
// when unreachable or src is not a source.
func (m *MultiSource) Path(src, dst int) []int {
	t := m.row(src)
	if t == nil || dst < 0 || dst >= m.n {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	if t[dst].p < 0 {
		return nil
	}
	hops := 0
	cur := dst
	for cur != -1 && cur != src {
		hops++
		cur = int(t[cur].p)
	}
	if cur != src {
		return nil
	}
	out := make([]int, hops+1)
	i := hops
	for cur := dst; ; cur = int(t[cur].p) {
		out[i] = cur
		if cur == src {
			break
		}
		i--
	}
	return out
}

// PathEdges returns the IDs of the directed edges of the path Path(src,
// dst) would return, in src → dst order, appended to buf[:0]. ok is false
// when dst is unreachable or src is not a source; src == dst is the empty
// path. Each hop resolves to the first edge parent→child in the parent's
// CSR row (EdgeBetween's rule for parallel links): a short scan of packed
// node IDs, with no node path materialized on the way.
func (m *MultiSource) PathEdges(src, dst int, buf []int) (edges []int, ok bool) {
	t := m.row(src)
	if t == nil || dst < 0 || dst >= m.n {
		return nil, false
	}
	buf = buf[:0]
	cur := dst
	for cur != src {
		p := t[cur].p
		if p < 0 {
			return nil, false
		}
		buf = append(buf, int(m.c.edgeID[m.c.edgeIndex(p, int32(cur))]))
		cur = int(p)
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf, true
}
