package topology

import "slices"

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
// of the rows asked for (SweepRowsUntil: only until named nodes have
// settled; SweepRowTo: one row, only as far as the one destination the
// caller will read). The weight vector is retained, so a
// row swept later — against the same weights — is exactly the row a full
// sweep at Reweigh time would have produced. A row that has not been swept
// since the last Reset holds garbage; callers that sweep selectively track
// which rows are current (cost.Model does).
//
// Freeze and Clone share a table's rows: a frozen table reads them in
// place, a clone holds its own copy.
type MultiSource struct {
	g         *Graph
	c         *csr   // g's CSR view as of Reset
	structVer uint64 // g.StructVersion() as of Reset

	n       int
	sources []int32
	rank    []int32    // node ID → row index, -1 when not a source
	tree    []treeNode // len(sources) interleaved (dist, parent) rows of n

	weights  []wEdge         // interleaved (cost, dst) vector of the last Reweigh
	minIn    []float64       // node ID → a lower bound on every weight into it
	positive bool            // every weight > 0 (Inf included): stopped sweeps are exact
	scratch  *sweepScratch   // sweeper 0's search state, the one every sweep but SweepRowOn's runs on
	others   []*sweepScratch // sweepers 1…: SweepRowOn's, readied by Sweepers
	spare    []treeNode      // CompleteRow's row, swept aside

	searches, settled int // SweepRowTo calls and the nodes they settled
}

// DijkstraFrom computes shortest paths from each source under the edge
// cost. Costs must be non-negative; Inf-cost edges are skipped. The cost
// closure is evaluated once per directed edge per sweep (not once per
// relaxation) to fill a flat weight vector, on the calling goroutine. The
// per-source searches run one after another on the caller, on one reusable
// scratch.
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
	ms.runSweeps(nil, nil, len(ms.sources))
	return ms
}

// Freeze returns a table that reads ms's rows, ranks and weights in place
// and is bound to no graph, so it keeps none alive: only the flattened view
// its paths are read through. It answers reads (Row, Dist, Path,
// PathEdges), Fits and Clone; it must not be written, nor ms while it is
// read.
func (ms *MultiSource) Freeze() *MultiSource {
	ms.mustBeBound()
	return &MultiSource{
		c: ms.c, n: ms.n,
		sources: ms.sources, rank: ms.rank, tree: ms.tree, weights: ms.weights, minIn: ms.minIn,
		positive: ms.positive,
	}
}

// Fits reports whether g is wired and weighted as the flattened view ms
// reads its paths through: the same nodes, and the same links with the
// same capacities, distances and bandwidths, in the same order. For a
// frozen table that is its graph as it was swept, so a sweep on g would
// write its rows.
func (ms *MultiSource) Fits(g *Graph) bool { return ms.c.flattens(g) }

// Clone returns a table bound to g, over g's CSR view, that holds its own
// copy of ms's rows, ranks and weights and none of its search state. g must
// be wired as ms's graph is; Fits tells, while their links' state agrees.
func (ms *MultiSource) Clone(g *Graph) *MultiSource {
	c := g.ensureCSR()
	if len(c.rowStart) != len(ms.c.rowStart) || len(c.dstID) != len(ms.c.dstID) {
		panic("topology: Clone onto a graph wired otherwise")
	}
	return &MultiSource{
		g: g, c: c, structVer: g.structVer, n: ms.n,
		sources: slices.Clone(ms.sources), rank: slices.Clone(ms.rank), tree: slices.Clone(ms.tree),
		weights: slices.Clone(ms.weights), minIn: slices.Clone(ms.minIn), positive: ms.positive,
	}
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
	ms.tree = ensureLen(ms.tree, len(sources)*n)
	ms.weights = ensureLen(ms.weights, len(ms.c.dstID))
	ms.minIn = ensureLen(ms.minIn, n)
}

// Reweigh refills the retained weight vector from the graph's current
// link state: one cost call per directed edge, no sweeps. Rows swept
// before the call keep describing the old weights until swept again.
func (ms *MultiSource) Reweigh(cost EdgeCost) {
	ms.mustBeBound()
	ms.positive = ms.c.fillWeights(ms.weights, ms.minIn, cost)
}

// PositiveWeights reports whether every weight of the vector is above zero
// (Inf counts as above), as SweepRowsUntil needs to stop exactly. A zero
// weight written by ReweighEdges clears it until the next Reweigh.
func (ms *MultiSource) PositiveWeights() bool { return ms.positive }

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
// other weights are already what a full Reweigh would write. The cheapest
// weight into each node, which SweepRowsUntil bounds its search with, only
// takes the min with the new weights: a lower bound still, if a looser one
// than the next Reweigh records.
func (ms *MultiSource) ReweighEdges(ids []int, cost EdgeCost) {
	ms.mustBeBound()
	for _, id := range ids {
		l := ms.g.loc[id]
		i := ms.c.rowStart[l.node] + l.pos
		w := cost(ms.c.edge(int(l.node), i))
		ms.weights[i].w = w
		v := ms.weights[i].v
		ms.minIn[v] = min(ms.minIn[v], w)
		ms.positive = ms.positive && w > 0
	}
}

// WeighFrom fills the retained weight vector from src's instead of from
// the graph: src's weights with every edge into a blocked node priced Inf,
// at a copy and one pass over each blocked node's links instead of a cost
// call per directed edge. The weights are bit for bit those Reweigh fills
// with src's cost masked to Inf on the edges into the blocked nodes. The
// cheapest weight into each node is src's, Inf for a blocked node, and
// PositiveWeights is src's: bounds as tight as src's, which ReweighEdges may
// have loosened, and a zero weight the mask priced Inf still counts. Blocked
// nodes outside the graph are ignored. Both tables must be bound to the
// graph's current wiring.
func (ms *MultiSource) WeighFrom(src *MultiSource, block ...int) {
	ms.mustBeBound()
	src.mustBeBound()
	if src.c != ms.c {
		panic("topology: WeighFrom source table is bound to another graph")
	}
	copy(ms.weights, src.weights)
	copy(ms.minIn, src.minIn)
	ms.positive = src.positive
	c := ms.c
	for _, v := range block {
		if v < 0 || v >= ms.n {
			continue
		}
		// Links are installed in both directions, so the edges into v are
		// the reverses of the edges out of it.
		for i := c.rowStart[v]; i < c.rowStart[v+1]; i++ {
			l := ms.g.loc[ReverseEdge(int(c.edgeID[i]))]
			ms.weights[c.rowStart[l.node]+l.pos].w = Inf
		}
		ms.minIn[v] = Inf
	}
}

// SweepRows runs the single-source search of each named row (an index
// into the Reset source list, see Row) against the retained weights.
// The rows run one after another on the caller's goroutine, on one
// reusable scratch, allocation-free once the scratch is grown. Rows must be
// distinct.
func (ms *MultiSource) SweepRows(rows []int) { ms.runSweeps(rows, nil, len(rows)) }

// SweepRowsUntil is SweepRows where the search of rows[i] ends once every
// node of waitFor[i] (its targets) has settled, or every neighbour of
// every target has settled and relaxed its edges, whichever comes first;
// on the way it drops every push that cannot lead cheaply enough to a
// target still open (see sweep in csr.go for the rules and why they are
// exact). Given PositiveWeights, the row's entry for every target — Dist,
// Path and PathEdges to it — is then bit for bit the full row's; other
// entries may be tentative and must not be read. An empty list sweeps the
// full row.
func (ms *MultiSource) SweepRowsUntil(rows []int, waitFor [][]int32) {
	ms.runSweeps(rows, waitFor, len(rows))
}

// CompleteRow sweeps one row in full, inline, without writing any entry
// the full sweep leaves unchanged: the search runs into a spare row and
// only the entries that differ are copied back. The entries a
// SweepRowsUntil stop left final are therefore never written, so other
// goroutines may go on reading them while the row is completed.
func (ms *MultiSource) CompleteRow(row int) {
	sc := ms.ensureScratch()
	ms.spare = ensureLen(ms.spare, ms.n)
	sc.sweep(ms.c, ms.sources[row], ms.weights, ms.minIn, ms.spare, nil)
	tree := ms.tree[row*ms.n : (row+1)*ms.n]
	for v, x := range ms.spare {
		if tree[v] != x {
			tree[v] = x
		}
	}
}

// Sweepers readies the search states of n sweepers, each grown to the
// bound graph. Sweeper 0 is the table's own state, which every sweep but
// SweepRowOn's runs on; sweepers 1…n−1 exist for SweepRowOn alone. Call it
// on one goroutine, before the sweeps that run at once.
func (ms *MultiSource) Sweepers(n int) {
	ms.ensureScratch()
	for len(ms.others) < n-1 {
		ms.others = append(ms.others, &sweepScratch{})
	}
	for _, sc := range ms.others[:max(n-1, 0)] {
		sc.ensure(ms.n, len(ms.c.dstID))
	}
}

// SweepRowOn is SweepRowsUntil for one row, on sweeper k's search state
// (Sweepers). Calls on distinct sweepers for distinct rows may run at the
// same time, as may reads of rows no call is sweeping: a row is its own
// stretch of the table, and the weights are only read. Sweeper 0's state
// is shared with every other kind of sweep, so its calls must not overlap
// those.
func (ms *MultiSource) SweepRowOn(k, row int, waitFor []int32) {
	var sc *sweepScratch
	if k == 0 {
		sc = ms.ensureScratch()
	} else {
		sc = ms.others[k-1]
	}
	sc.sweep(ms.c, ms.sources[row], ms.weights, ms.minIn, ms.tree[row*ms.n:(row+1)*ms.n], waitFor)
}

// SweptNodes returns how many nodes the full and stopped sweeps
// (SweepRows, SweepRowsUntil, SweepRowOn, CompleteRow, DijkstraFrom) have
// settled in total, over every sweeper: divided by the rows swept, the
// work of one row.
func (ms *MultiSource) SweptNodes() int {
	total := 0
	if ms.scratch != nil {
		total = ms.scratch.swept
	}
	for _, sc := range ms.others {
		total += sc.swept
	}
	return total
}

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
	sc := ms.ensureScratch()
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

// runSweeps runs count searches on the caller, one after another: of
// rows[i], or of row i when rows is nil (every row, without materializing
// the identity list), the i-th stopping after waitFor[i] when waitFor is
// not nil.
func (ms *MultiSource) runSweeps(rows []int, waitFor [][]int32, count int) {
	if count == 0 {
		return
	}
	sc := ms.ensureScratch()
	for i := 0; i < count; i++ {
		ms.sweepRow(sc, rows, waitFor, i)
	}
}

func (ms *MultiSource) sweepRow(sc *sweepScratch, rows []int, waitFor [][]int32, i int) {
	var until []int32
	if waitFor != nil {
		until = waitFor[i]
	}
	if rows != nil {
		i = rows[i]
	}
	sc.sweep(ms.c, ms.sources[i], ms.weights, ms.minIn, ms.tree[i*ms.n:(i+1)*ms.n], until)
}

// ensureScratch returns the table's search state, grown to the bound
// graph.
func (ms *MultiSource) ensureScratch() *sweepScratch {
	if ms.scratch == nil {
		ms.scratch = &sweepScratch{}
	}
	ms.scratch.ensure(ms.n, len(ms.c.dstID))
	return ms.scratch
}

// ensureLen returns s resliced to length n, or a new slice when its
// capacity is short.
func ensureLen[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
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

// Hops returns the number of links on the path Path(src, dst) returns, or
// -1 when it returns nil: dst unreachable, or src not a source.
func (m *MultiSource) Hops(src, dst int) int {
	t := m.row(src)
	if t == nil || dst < 0 || dst >= m.n {
		return -1
	}
	hops, cur := 0, dst
	for cur != -1 && cur != src {
		hops++
		cur = int(t[cur].p)
	}
	if cur != src {
		return -1
	}
	return hops
}

// Path reconstructs one minimal path src → … → dst (inclusive) into buf,
// or returns nil when unreachable or src is not a source. The path is
// written over buf[:0] when buf has the room, and into a slice of exactly
// the path's length otherwise; buf may be nil.
func (m *MultiSource) Path(src, dst int, buf []int) []int {
	hops := m.Hops(src, dst)
	if hops < 0 {
		return nil
	}
	t := m.row(src)
	out := ensureLen(buf, hops+1)
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
