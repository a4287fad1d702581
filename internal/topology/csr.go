package topology

import (
	"math"
	"math/bits"
)

// Compressed-sparse-row view of a Graph and the reusable scratch behind
// the shortest-path sweeps. The adjacency is flattened once into parallel
// arrays (rowStart/dstID/capacity/distance/bandwidth) so the Dijkstra hot
// loop walks contiguous memory instead of a pointer-heavy [][]Edge, and
// per-sweep edge costs are materialized into a flat weight vector exactly
// once instead of invoking the EdgeCost closure at every relaxation. The
// graph keeps the CSR alongside the mutable adjacency: structural changes
// (AddNode/AddLink) invalidate it, SetBandwidth patches the bandwidth
// column in place, so steady-state sweeps never rebuild anything.

// csr is the flattened edge array view. Edge order is the adjacency
// order: all outgoing edges of node 0, then node 1, and so on, preserving
// per-node insertion order, so relaxation order matches the seed walker.
type csr struct {
	rowStart  []int32 // len n+1; edges of node u live in [rowStart[u], rowStart[u+1])
	dstID     []int32 // len m
	edgeID    []int32 // len m; CSR slot → Edge.ID
	capacity  []float64
	distance  []float64
	bandwidth []float64
}

func buildCSR(g *Graph) *csr {
	n := len(g.nodes)
	m := 0
	for _, es := range g.adj {
		m += len(es)
	}
	c := &csr{
		rowStart:  make([]int32, n+1),
		dstID:     make([]int32, m),
		edgeID:    make([]int32, m),
		capacity:  make([]float64, m),
		distance:  make([]float64, m),
		bandwidth: make([]float64, m),
	}
	idx := int32(0)
	for u := 0; u < n; u++ {
		c.rowStart[u] = idx
		for _, e := range g.adj[u] {
			c.dstID[idx] = int32(e.To)
			c.edgeID[idx] = int32(e.ID)
			c.capacity[idx] = e.Capacity
			c.distance[idx] = e.Distance
			c.bandwidth[idx] = e.Bandwidth
			idx++
		}
	}
	c.rowStart[n] = idx
	return c
}

// flattens reports whether c flattens g as it stands: g's links in c's
// order, with c's capacities, distances and bandwidths.
func (c *csr) flattens(g *Graph) bool {
	if len(c.rowStart) != len(g.adj)+1 {
		return false
	}
	for u, es := range g.adj {
		i := c.rowStart[u]
		if c.rowStart[u+1]-i != int32(len(es)) {
			return false
		}
		for k, e := range es {
			j := i + int32(k)
			if c.dstID[j] != int32(e.To) || c.edgeID[j] != int32(e.ID) ||
				c.capacity[j] != e.Capacity || c.distance[j] != e.Distance || c.bandwidth[j] != e.Bandwidth {
				return false
			}
		}
	}
	return true
}

// edgeIndex returns the index of the first directed edge from→to, or -1.
// Mirrors Graph.EdgeBetween's first-match rule for parallel links.
func (c *csr) edgeIndex(from, to int32) int32 {
	for i := c.rowStart[from]; i < c.rowStart[from+1]; i++ {
		if c.dstID[i] == to {
			return i
		}
	}
	return -1
}

// wEdge is one entry of a materialized weight vector: the edge cost
// interleaved with the destination, so the relaxation loop reads a single
// sequential stream (one bounds check, one cache line) instead of parallel
// weight and dstID arrays.
type wEdge struct {
	w float64
	v int32
}

// edge rebuilds the Edge value of CSR slot i in node u's row.
func (c *csr) edge(u int, i int32) Edge {
	return Edge{
		ID:        int(c.edgeID[i]),
		From:      u,
		To:        int(c.dstID[i]),
		Capacity:  c.capacity[i],
		Distance:  c.distance[i],
		Bandwidth: c.bandwidth[i],
	}
}

// fillWeights materializes the edge-cost vector for one sweep: one
// EdgeCost call per directed edge, shared by every source of the sweep.
// In the same pass it records in minIn (len n) the cheapest weight into
// each node, Inf for a node with no finite in-edge: the goal bound of a
// stopped sweep (see sweep). It reports whether every weight is above zero
// (Inf included), the condition under which a stopped sweep is exact.
func (c *csr) fillWeights(w []wEdge, minIn []float64, cost EdgeCost) (positive bool) {
	n := len(c.rowStart) - 1
	for v := range minIn {
		minIn[v] = Inf
	}
	positive = true
	for u := 0; u < n; u++ {
		for i := c.rowStart[u]; i < c.rowStart[u+1]; i++ {
			x, v := cost(c.edge(u, i)), c.dstID[i]
			positive = positive && x > 0
			minIn[v] = min(minIn[v], x)
			w[i] = wEdge{x, v}
		}
	}
	return positive
}

// treeNode is one entry of a shortest-path-tree row: tentative distance
// interleaved with the parent, so a relaxation touches a single cache
// line per target node instead of missing on separate dist and parent
// arrays (ties load the parent on the same line the distance came in on).
type treeNode struct {
	d float64
	p int32
}

// heapEnt is one queue entry, distance first so that a slot is one
// 16-byte unit. The two loops share the storage: sweepTo keeps a 4-ary
// heap in it and ignores next; sweep threads its radix buckets through it
// as linked lists, next being the following entry of the same bucket (-1
// ends the list). Each loop pushes at most once per directed edge plus the
// source, so m+1 slots never grow.
type heapEnt struct {
	d    float64
	v    int32
	next int32
}

// sweepScratch is the reusable state of one Dijkstra sweep: the
// queue storage (no container/heap, no interface boxing) plus an
// epoch-stamped settled array, so clearing between sweeps is a single
// counter increment rather than an O(n) wipe. Epochs are multiples of
// four; sweep stamps the nodes it waits for with epoch+1 (a target),
// epoch+2 (a target's neighbour) or epoch+3 (both) in the same array, so
// telling a marked node from a settled or untouched one costs no extra
// load.
type sweepScratch struct {
	heap []heapEnt // cap m+1: sweepTo's heap, or sweep's radix arena

	settled []uint32 // settled[v] == epoch ⇒ v finalized this sweep; epoch+1…+3 ⇒ v marked
	epoch   uint32

	swept int // nodes settled by sweep, summed over the sweeps of this scratch
}

// ensure grows the scratch to cover n nodes and m directed edges.
func (s *sweepScratch) ensure(n, m int) {
	if len(s.settled) < n {
		s.settled = make([]uint32, n)
		s.epoch = 0
	}
	if cap(s.heap) < m+1 {
		s.heap = make([]heapEnt, 0, m+1)
	}
}

// nextEpoch advances the settled epoch by four (the values in between are
// the sweep's marks), wiping the array on wraparound.
func (s *sweepScratch) nextEpoch() uint32 {
	s.epoch += 4
	if s.epoch == 0 {
		clear(s.settled)
		s.epoch = 4
	}
	return s.epoch
}

// Both queues live inline in their loops, with lazy deletion (a stale
// entry is skipped via the settled epoch on pop): as methods they are too
// large for the inliner, and the call overhead plus per-access field
// reloads showed up as ~30% of the sweep profile. Both loops work on a
// local copy of the slice and write it back on exit.

// sweep runs one single-source Dijkstra over the CSR with the
// materialized weight vector, writing into the caller's dist/parent rows.
// Ties in path cost resolve to the smallest predecessor ID, making the
// shortest-path tree a pure function of the graph and weights rather than
// of queue pop order; the reference walker applies the same rule, so the
// two implementations are bit-identical.
//
// The queue is a monotone radix heap over the IEEE-754 bits of the keys,
// which order non-negative doubles as integers do. A key goes to bucket
// bits.Len64(key ^ last): O(1), and a key equal to the last one popped —
// every tie on a pristine fabric — lands in bucket 0, which pops without
// further work. Its precondition is every weight ≥ 0 or +Inf, so that no
// key pushed is below the last key popped; NaN or negative weights break
// it, as they break Dijkstra.
//
// An Inf edge weight needs no explicit skip here: d is always finite, so
// nd becomes Inf, which can neither improve dist[v] (Inf < x is false for
// every x) nor steal the tie (nd == dv == Inf implies parent[v] == -1,
// and u < -1 is impossible) — exactly the no-op the seed's `continue`
// produced, minus a branch per edge. sweepTo keeps the skip: its searches
// are the ones that meet Inf edges (the reroute pass prices every edge into
// the hot switch Inf), and the skip spares them the bound and tree loads.
//
// The stops and the bound: with waitFor empty the sweep runs until the
// queue drains, the full row. Otherwise waitFor names the targets, and the
// sweep ends at whichever of two stops comes first: every target has
// settled, or every neighbour of every target has settled and relaxed its
// edges. The targets and their neighbours are stamped with marks in the
// settled array (see sweepScratch), so the settle branch tells them by the
// value it already loaded, and the countdowns cost a full sweep two
// compares per settled node. Given every weight > 0, either stop leaves
// each target's distance and parent chain bit for bit the full row's: a
// settled node's entry never changes again and its parent chain settled
// before it; and once every neighbour of a target has settled and relaxed
// its edges, no relaxation of the target's entry is left to come.
//
// On the way, the push of a non-target v at nd is dropped when nd exceeds
// the bound: the largest d̃(t)·(1+1e-9) − minIn(t) over the targets t still
// open, d̃(t) being t's tentative distance and minIn(t) the cheapest weight
// into t. A target with minIn Inf has no finite in-edge and never settles;
// it is left out of the max. The bound is Inf until every other open target
// has a tentative distance (so for good if one of them is never reached),
// and then only falls, as d̃ falls and targets close. It is recomputed
// (goalBound) only when the target that sets it improves or settles, or the
// last open target is first reached. Why each target's entry is still the
// full row's — sweepTo's points (1)–(3) with the bound of one open target:
// (1) a node x on a cheapest src → t path has d(x) + minIn(t) ≤ d(t) ≤
// d̃(t), since the path's last edge enters t; the slack on d̃(t) absorbs the
// rounding of the path's sum and of the bound's own product and difference,
// so no relaxation that gives x its final distance is dropped, and x settles
// at d(x), by induction along the path; (2) an equal-cost predecessor of
// such a node lies on such a path itself, so every candidate of the tie rule
// still relaxes the node; (3) dropping a push never reorders the pops, and
// with positive weights every equal-cost predecessor pops before the node
// settles. Targets themselves are never dropped, and a neighbour that
// settles off every cheapest path relaxes a target to more than its
// distance. Entries of other nodes may be tentative, or never written, also
// when neither stop fires and the queue drains.
//
// Point-to-point searches run in sweepTo, whose searches settle too few
// nodes to pay for a refill of the radix queue.
func (s *sweepScratch) sweep(c *csr, src int32, w []wEdge, minIn []float64, tree []treeNode, waitFor []int32) {
	for i := range tree {
		tree[i] = treeNode{Inf, -1}
	}
	ep := s.nextEpoch()
	settled := s.settled
	rowStart := c.rowStart
	// left: targets not yet settled; near: their neighbours not yet
	// settled and relaxed (links run both ways, so the nodes a target's
	// edges lead to are those whose edges enter it); open: targets with a
	// finite minIn still at d̃ = Inf, which keep the bound Inf; arg: the
	// target that sets the bound, -1 while none does. A mark's bit 0 says
	// target, bit 1 neighbour.
	left, near, open := 0, 0, 0
	for _, t := range waitFor {
		if settled[t] < ep { // repeats are marked already
			settled[t] = ep + 1
			left++
			if t != src && minIn[t] < Inf {
				open++
			}
		}
	}
	for _, t := range waitFor {
		for _, e := range w[rowStart[t]:rowStart[t+1]] {
			if v := e.v; settled[v] < ep+2 { // untouched, or a target
				settled[v] = max(settled[v], ep) + 2
				near++
			}
		}
	}
	bound, arg := Inf, int32(-1)
	if left > 0 && open == 0 {
		bound, arg = goalBound(waitFor, settled, ep, tree, minIn)
	}
	count := 0
	// The radix queue: head[b] is the newest entry of bucket b in the arena
	// a, low[b] the smallest key bucket b has held since it was last
	// emptied, and bit b of full is set while bucket b may be non-empty.
	var head [64]int32
	var low [64]uint64
	for b := range head {
		head[b], low[b] = -1, math.MaxUint64
	}
	tree[src].d = 0
	a := append(s.heap[:0], heapEnt{0, src, -1})
	head[0] = 0
	full, last := uint64(1), uint64(0) // last: the bits of the last key popped
	for {
		if head[0] < 0 {
			full &^= 1
			if full == 0 {
				break
			}
			// Refill: the lowest non-empty bucket holds the next key. Make
			// its smallest key the last one and redistribute the bucket:
			// every entry shares more high bits with it than with the old
			// last, so it lands strictly lower, the smallest in bucket 0.
			b := bits.TrailingZeros64(full)
			i := head[b]
			last = low[b]
			head[b], low[b], full = -1, math.MaxUint64, full&^(1<<b)
			for i >= 0 {
				e := &a[i]
				next := e.next
				key := math.Float64bits(e.d)
				k := bits.Len64(key^last) & 63
				e.next, head[k] = head[k], i
				low[k] = min(low[k], key)
				full |= 1 << k
				i = next
			}
		}
		top := a[head[0]]
		head[0] = top.next
		u, d := top.v, top.d
		su := settled[u]
		if su == ep {
			continue
		}
		settled[u] = ep
		count++
		mk := su - ep // 1…3 when u is marked
		if mk < 4 && mk&1 != 0 {
			if left--; left == 0 {
				break
			}
			if u == arg {
				bound, arg = goalBound(waitFor, settled, ep, tree, minIn)
			}
		}
		for _, e := range w[rowStart[u]:rowStart[u+1]] {
			nd := d + e.w
			tv := &tree[e.v]
			if nd < tv.d {
				if left > 0 { // a stopped sweep: targets and the bound
					if k := settled[e.v] - ep; k < 4 && k&1 != 0 {
						if tv.d == Inf {
							open--
						}
						tv.d = nd // goalBound reads it
						if open == 0 && (arg < 0 || e.v == arg) {
							bound, arg = goalBound(waitFor, settled, ep, tree, minIn)
						}
					} else if nd > bound {
						continue
					}
				}
				tv.d = nd
				tv.p = u
				// Push: the key's bucket is the length of the prefix it
				// shares with the last key. Both sign bits are clear, so
				// k < 64 and the mask only tells the compiler so.
				key := math.Float64bits(nd)
				k := bits.Len64(key^last) & 63
				a = append(a, heapEnt{nd, e.v, head[k]})
				head[k] = int32(len(a) - 1)
				low[k] = min(low[k], key)
				full |= 1 << k
			} else if nd == tv.d && u < tv.p && settled[e.v] != ep {
				// Tie updates stop once v settles: with a zero-weight
				// edge between two equal-distance nodes, a post-settle
				// steal lets each adopt the other as parent — a cycle
				// that hangs Path reconstruction. Positive weights are
				// unaffected (every equal-cost predecessor pops strictly
				// before v settles). The reference walker applies the
				// identical guard.
				tv.p = u
			}
		}
		if mk < 4 && mk&2 != 0 {
			if near--; near == 0 {
				break
			}
		}
	}
	s.heap = a[:0]
	s.swept += count
}

// goalBound is sweep's push bound over the targets not settled at epoch
// ep, and the target that sets it: -Inf and -1 when every open target has
// minIn Inf.
func goalBound(waitFor []int32, settled []uint32, ep uint32, tree []treeNode, minIn []float64) (bound float64, arg int32) {
	bound, arg = math.Inf(-1), -1
	for _, t := range waitFor {
		if settled[t] == ep || minIn[t] == Inf {
			continue
		}
		if b := tree[t].d*(1+1e-9) - minIn[t]; b > bound {
			bound, arg = b, t
		}
	}
	return bound, arg
}

// sweepTo is the point-to-point loop: sweep on a plain 4-ary heap, with a
// stop node and an optional goal-directed bound. Edges priced Inf are
// skipped, and that is the only way a search avoids anything: the reroute
// pass steers around a hot switch by pricing every edge into it Inf. It
// serves MultiSource.SweepRowTo and returns the number of nodes it settled.
//
// A stop node (≥ 0) ends the search the moment it settles. Relaxations come
// only from settled nodes and a settled node's parent is frozen, so the
// whole parent chain stop → … → src was final by then: the path and distance
// read for stop are bit for bit what the full search gives. Every other
// entry of the row may still be tentative. A stop node that is never reached
// (or stop < 0) lets the queue drain: that is the full search.
//
// The bound: lower[v].d must never exceed the cost of the cheapest v → stop
// path under w, and ub must be the cost of some real src → stop path (with
// its rounding slack already in). A relaxation reaching v at nd is dropped
// when nd + lower[v].d > ub. Why the answer for stop is still that of the
// full search: (1) a node x on any cheapest src → stop path has
// d(x) + lower[x] ≤ d(stop) ≤ ub, so no relaxation that gives x its final
// distance is dropped and x settles at d(x), by induction along the path;
// (2) an equal-cost predecessor of a node on such a path lies on such a path
// itself, so every candidate of the smallest-predecessor tie rule still
// relaxes the node; (3) the pop order is by distance from src alone, as
// without the bound, and with positive weights every equal-cost predecessor
// pops before the node settles. Hence each parent on the chain stop → … →
// src is the one the full search picks. A zero-weight link between two
// equal-distance nodes is the one case decided by queue order, which neither
// a bound nor the radix queue of sweep preserves: callers that need the
// full row's tree bit for bit price every link above zero. lower == nil is
// no bound; ub is then unused. With stop unreachable no real path exists, so
// ub is Inf, nothing is dropped and the row is the full row.
func (s *sweepScratch) sweepTo(c *csr, src, stop int32, w []wEdge, tree, lower []treeNode, ub float64) (settledNodes int) {
	for i := range tree {
		tree[i] = treeNode{Inf, -1}
	}
	ep := s.nextEpoch()
	settled := s.settled
	rowStart := c.rowStart
	tree[src].d = 0
	h := append(s.heap[:0], heapEnt{d: 0, v: src})
	for len(h) > 0 {
		u, d := h[0].v, h[0].d
		last := len(h) - 1
		e := h[last]
		h = h[:last]
		// Hole sift-down: walk the min-child chain moving children up, and
		// drop the displaced tail entry into the final hole — half the
		// stores of swap-based sifting and one fewer compare per level.
		i := 0
		for {
			c0 := i<<2 + 1
			if c0 >= last {
				break
			}
			min := c0
			if c0+4 <= last {
				if h[c0+1].d < h[min].d {
					min = c0 + 1
				}
				if h[c0+2].d < h[min].d {
					min = c0 + 2
				}
				if h[c0+3].d < h[min].d {
					min = c0 + 3
				}
			} else {
				for c1 := c0 + 1; c1 < last; c1++ {
					if h[c1].d < h[min].d {
						min = c1
					}
				}
			}
			if h[min].d >= e.d {
				break
			}
			h[i] = h[min]
			i = min
		}
		if last > 0 {
			h[i] = e
		}
		if settled[u] == ep {
			continue
		}
		settled[u] = ep
		settledNodes++
		if u == stop {
			break
		}
		for _, e := range w[rowStart[u]:rowStart[u+1]] {
			if e.w == Inf {
				continue
			}
			v := e.v
			nd := d + e.w
			if lower != nil && nd+lower[v].d > ub {
				continue
			}
			tv := &tree[v]
			if nd < tv.d {
				tv.d = nd
				tv.p = u
				h = append(h, heapEnt{d: nd, v: v})
				i := len(h) - 1
				for i > 0 {
					p := (i - 1) >> 2
					if h[i].d >= h[p].d {
						break
					}
					h[i], h[p] = h[p], h[i]
					i = p
				}
			} else if nd == tv.d && u < tv.p && settled[v] != ep {
				// Same settled guard as sweep: no parent steals after v
				// settles, preventing zero-weight-edge parent cycles.
				tv.p = u
			}
		}
	}
	s.heap = h[:0]
	return settledNodes
}

// probeSteps bounds the greedy walk of probe: data-center fabrics are a
// handful of hops across, and a walk that has not arrived by then would
// give a bound too loose to prune with.
const probeSteps = 32

// probe finds one real path src → dst under w by walking greedily and
// returns its cost, the upper bound of a goal-directed sweepTo; Inf when it
// finds none. Each step takes the unvisited neighbour with the smallest
// w + lower (the edge, then the cheapest way on if every link cost what
// lower assumes), and looks one step past it: a neighbour other than dst
// with no finite edge to an unvisited node is a dead end — the server whose
// only other port leads into the Inf-priced hot switch — and is struck off
// instead of entered.
func (s *sweepScratch) probe(c *csr, src, dst int32, w []wEdge, lower []treeNode) (cost float64) {
	ep := s.nextEpoch()
	seen := s.settled
	seen[src] = ep
	cur := src
	for steps := 0; cur != dst; steps++ {
		if steps == probeSteps {
			return Inf
		}
		for {
			next, nextW, best := int32(-1), 0.0, Inf
			for _, e := range w[c.rowStart[cur]:c.rowStart[cur+1]] {
				if seen[e.v] == ep {
					continue
				}
				if sc := e.w + lower[e.v].d; sc < best {
					next, nextW, best = e.v, e.w, sc
				}
			}
			if next < 0 {
				return Inf
			}
			seen[next] = ep
			open := next == dst
			if !open {
				for _, e := range w[c.rowStart[next]:c.rowStart[next+1]] {
					if seen[e.v] != ep && e.w < Inf {
						open = true
						break
					}
				}
			}
			if open {
				cur, cost = next, cost+nextW
				break
			}
		}
	}
	return cost
}
