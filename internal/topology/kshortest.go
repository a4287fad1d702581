package topology

import (
	"sheriff/internal/pool"
)

// kspScratch bundles everything a Yen run (or an avoidance query) needs:
// one sweep scratch whose epoch masks implement the per-spur edge/node
// blocks in O(1) per spur instead of rebuilding filter closures and maps,
// plus reusable dist/parent/weight vectors and path buffers. Instances
// are recycled through the shared cache, so steady-state reroute planning
// stops allocating scratch after warmup.
type kspScratch struct {
	sweepScratch
	tree     []treeNode
	weights  []wEdge
	pathBuf  []int
	totalBuf []int
	cands    []kspCandidate
}

var kspCache = pool.NewCache(func() *kspScratch { return &kspScratch{} })

func (s *kspScratch) prepare(c *csr, cost EdgeCost) {
	n := len(c.rowStart) - 1
	m := len(c.dstID)
	s.ensure(n, m)
	s.tree = ensureTreeNodes(s.tree, n)
	s.weights = ensureWEdges(s.weights, m)
	c.fillWeights(s.weights, cost)
	s.cands = s.cands[:0]
}

// pathInto reconstructs src→dst from the scratch parent row into buf.
func (s *kspScratch) pathInto(src, dst int, buf []int) []int {
	if src == dst {
		return append(buf[:0], src)
	}
	if s.tree[dst].p < 0 {
		return nil
	}
	hops := 0
	cur := dst
	for cur != -1 && cur != src {
		hops++
		cur = int(s.tree[cur].p)
	}
	if cur != src {
		return nil
	}
	if cap(buf) < hops+1 {
		buf = make([]int, hops+1)
	}
	buf = buf[:hops+1]
	i := hops
	for cur := dst; ; cur = int(s.tree[cur].p) {
		buf[i] = cur
		if cur == src {
			break
		}
		i--
	}
	return buf
}

// pathCostW sums the materialized weights along a node path, following
// the same sequential order as PathCost so values stay bit-identical.
func pathCostW(c *csr, w []wEdge, path []int) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		e := c.edgeIndex(int32(path[i-1]), int32(path[i]))
		if e < 0 {
			return Inf
		}
		total += w[e].w
	}
	return total
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// under the edge cost, in nondecreasing cost order (Yen's algorithm).
// FLOWREROUTE uses the alternatives to route conflict flows around hot
// switches (Sec. III.B "reroute portion of flows to their destinations
// without passing through hot switches"). Spur searches run on a shared
// scratch with epoch-stamped block masks; the candidate list is reused
// across rounds and deduplicated before a spur path is ever copied.
func KShortestPaths(g *Graph, src, dst, k int, cost EdgeCost) [][]int {
	if k <= 0 || src < 0 || dst < 0 || src >= g.NumNodes() || dst >= g.NumNodes() {
		return nil
	}
	c := g.ensureCSR()
	st := kspCache.Get()
	defer kspCache.Put(st)
	st.prepare(c, cost)

	// Every search below reads dst alone, so each stops when dst settles.
	st.nextMaskEpoch() // nothing blocked yet
	st.sweepMasked(c, int32(src), int32(dst), st.weights, st.tree, nil, 0)
	first := st.pathInto(src, dst, nil)
	if first == nil {
		return nil
	}
	paths := [][]int{first}

	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Spur from every node of the previous path except the last.
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			mep := st.nextMaskEpoch()
			// Block the edges that would recreate already-found paths
			// sharing this root.
			for _, p := range paths {
				if len(p) > i && equalPrefix(p, rootPath) {
					if e := c.edgeIndex(int32(p[i]), int32(p[i+1])); e >= 0 {
						st.edgeMask[e] = mep
					}
				}
			}
			// Block root-path nodes (except the spur) to keep paths
			// loopless. They are interior nodes of a loopless path, so
			// dst is never among them.
			for _, n := range rootPath[:len(rootPath)-1] {
				st.nodeMask[n] = mep
			}

			st.sweepMasked(c, int32(spurNode), int32(dst), st.weights, st.tree, nil, 0)
			spurPath := st.pathInto(spurNode, dst, st.pathBuf)
			if spurPath == nil {
				continue
			}
			st.pathBuf = spurPath
			st.totalBuf = append(st.totalBuf[:0], rootPath[:len(rootPath)-1]...)
			total := append(st.totalBuf, spurPath...)
			st.totalBuf = total
			if containsPath(paths, total) || containsCandidate(st.cands, total) {
				continue
			}
			st.cands = append(st.cands, kspCandidate{
				path: append([]int(nil), total...),
				cost: pathCostW(c, st.weights, total),
			})
		}
		if len(st.cands) == 0 {
			break
		}
		// Promote the cheapest candidate; the strict < keeps the earliest
		// inserted among equal costs, matching the stable-sort promotion
		// of the reference implementation.
		best := 0
		for j := 1; j < len(st.cands); j++ {
			if st.cands[j].cost < st.cands[best].cost {
				best = j
			}
		}
		paths = append(paths, st.cands[best].path)
		st.cands = append(st.cands[:best], st.cands[best+1:]...)
	}
	return paths
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p[i] != v {
			return false
		}
	}
	return true
}

func containsPath(paths [][]int, p []int) bool {
	for _, q := range paths {
		if equalPath(p, q) {
			return true
		}
	}
	return false
}

// kspCandidate is a spur path awaiting promotion in Yen's algorithm.
type kspCandidate struct {
	path []int
	cost float64
}

func containsCandidate(cands []kspCandidate, p []int) bool {
	for _, c := range cands {
		if equalPath(p, c.path) {
			return true
		}
	}
	return false
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PathCost sums the edge costs along a node path. It returns Inf when a
// hop has no edge.
func PathCost(g *Graph, path []int, cost EdgeCost) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		e, ok := g.EdgeBetween(path[i-1], path[i])
		if !ok {
			return Inf
		}
		total += cost(e)
	}
	return total
}

// ShortestPathAvoidingNodes returns one shortest path from src to dst that
// does not pass through any node in avoid (endpoints exempt), or nil.
// This is the direct "avoid the hot switch" primitive of FLOWREROUTE.
func ShortestPathAvoidingNodes(g *Graph, src, dst int, avoid map[int]bool, cost EdgeCost) []int {
	if src < 0 || dst < 0 || src >= g.NumNodes() || dst >= g.NumNodes() {
		return nil
	}
	c := g.ensureCSR()
	st := kspCache.Get()
	defer kspCache.Put(st)
	st.prepare(c, cost)
	mep := st.nextMaskEpoch()
	for n, on := range avoid {
		if on && n != src && n != dst && n >= 0 && n < g.NumNodes() {
			st.nodeMask[n] = mep
		}
	}
	st.sweepMasked(c, int32(src), int32(dst), st.weights, st.tree, nil, 0)
	return st.pathInto(src, dst, nil)
}
