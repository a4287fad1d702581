package topology

import (
	"container/heap"
	"sort"

	"sheriff/internal/pool"
)

// This file preserves the seed's routing walkers essentially verbatim:
// pointer-chasing [][]Edge adjacency, an EdgeCost closure call per
// relaxation, container/heap with interface boxing, map-backed result
// tables, and Yen spur searches that rebuild filter closures and maps per
// spur. They are the ground truth for the equivalence tests and the
// "before" side of the routing benchmarks, kept unexported so production
// callers can only reach the CSR paths. The single deviation from the
// seed is the smallest-predecessor tie rule on equal path costs (the
// `nd == dist && u < parent` branch), which both implementations apply so
// shortest-path trees are a pure function of the graph rather than of
// heap pop order — the property the bit-identical equivalence tests rely
// on.

// refMultiSource mirrors the seed's map-backed MultiSource.
type refMultiSource struct {
	n      int
	dist   map[int][]float64
	parent map[int][]int32
}

func referenceDijkstraFrom(g *Graph, sources []int, cost EdgeCost) *refMultiSource {
	ms := &refMultiSource{
		n:      g.NumNodes(),
		dist:   make(map[int][]float64, len(sources)),
		parent: make(map[int][]int32, len(sources)),
	}
	dists := make([][]float64, len(sources))
	parents := make([][]int32, len(sources))
	pool.Shared().ForEach(len(sources), func(i int) {
		dists[i], parents[i] = referenceDijkstra(g, sources[i], cost)
	})
	for i, s := range sources {
		ms.dist[s] = dists[i]
		ms.parent[s] = parents[i]
	}
	return ms
}

type refPQItem struct {
	node int
	dist float64
}

type refPQ []refPQItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refPQItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func referenceDijkstra(g *Graph, src int, cost EdgeCost) ([]float64, []int32) {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]int32, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	q := &refPQ{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refPQItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, e := range g.Edges(it.node) {
			c := cost(e)
			if c == Inf {
				continue
			}
			if nd := it.dist + c; nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = int32(it.node)
				heap.Push(q, refPQItem{e.To, nd})
			} else if nd == dist[e.To] && int32(it.node) < parent[e.To] && !done[e.To] {
				// No parent steals after a node is done: a zero-weight
				// edge between equal-distance nodes would otherwise let
				// the pair adopt each other as parents (a cycle). The
				// CSR sweeps apply the identical guard.
				parent[e.To] = int32(it.node)
			}
		}
	}
	return dist, parent
}

func (m *refMultiSource) Dist(src, dst int) float64 {
	d, ok := m.dist[src]
	if !ok || dst < 0 || dst >= m.n {
		return Inf
	}
	return d[dst]
}

func (m *refMultiSource) Path(src, dst int) []int {
	p, ok := m.parent[src]
	if !ok || dst < 0 || dst >= m.n {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	if p[dst] < 0 {
		return nil
	}
	var rev []int
	for cur := dst; cur != -1; cur = int(p[cur]) {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// referenceKShortestPaths is the seed's Yen: per-spur blocked-node and
// blocked-edge maps wrapped in a fresh filter closure, a full map-backed
// Dijkstra per spur, and candidate paths copied before deduplication.
func referenceKShortestPaths(g *Graph, src, dst, k int, cost EdgeCost) [][]int {
	if k <= 0 || src < 0 || dst < 0 || src >= g.NumNodes() || dst >= g.NumNodes() {
		return nil
	}
	first := referenceShortestPathAvoiding(g, src, dst, cost, nil, nil)
	if first == nil {
		return nil
	}
	paths := [][]int{first}
	var candidates []kspCandidate

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]

			blockedEdges := make(map[[2]int]bool)
			for _, p := range paths {
				if len(p) > i && equalPrefix(p, rootPath) {
					blockedEdges[[2]int{p[i], p[i+1]}] = true
				}
			}
			blockedNodes := make(map[int]bool)
			for _, n := range rootPath[:len(rootPath)-1] {
				blockedNodes[n] = true
			}

			spurPath := referenceShortestPathAvoiding(g, spurNode, dst, cost, blockedNodes, blockedEdges)
			if spurPath == nil {
				continue
			}
			total := append(append([]int(nil), rootPath[:len(rootPath)-1]...), spurPath...)
			if containsPath(paths, total) || containsCandidate(candidates, total) {
				continue
			}
			candidates = append(candidates, kspCandidate{path: total, cost: PathCost(g, total, cost)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].cost < candidates[b].cost })
		paths = append(paths, candidates[0].path)
		candidates = candidates[1:]
	}
	return paths
}

func referenceShortestPathAvoiding(g *Graph, src, dst int, cost EdgeCost, blockedNodes map[int]bool, blockedEdges map[[2]int]bool) []int {
	filtered := func(e Edge) float64 {
		if blockedNodes[e.To] && e.To != dst {
			return Inf
		}
		if blockedEdges[[2]int{e.From, e.To}] {
			return Inf
		}
		return cost(e)
	}
	ms := referenceDijkstraFrom(g, []int{src}, filtered)
	return ms.Path(src, dst)
}

// referenceShortestPathAvoidingNodes is the seed's hot-switch avoidance
// primitive, for equivalence against ShortestPathAvoidingNodes.
func referenceShortestPathAvoidingNodes(g *Graph, src, dst int, avoid map[int]bool, cost EdgeCost) []int {
	if src < 0 || dst < 0 || src >= g.NumNodes() || dst >= g.NumNodes() {
		return nil
	}
	filtered := func(e Edge) float64 {
		if avoid[e.To] && e.To != dst && e.To != src {
			return Inf
		}
		return cost(e)
	}
	ms := referenceDijkstraFrom(g, []int{src}, filtered)
	return ms.Path(src, dst)
}

// referenceRackNeighbors is RackNeighbors as it was while it marked visited
// nodes in a map built per call, verbatim.
func referenceRackNeighbors(g *Graph, id int, maxSwitchHops int) []int {
	type state struct{ node, switchHops int }
	seen := make(map[int]bool, len(g.nodes))
	seen[id] = true
	var out []int
	queue := []state{{id, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[cur.node] {
			n := g.nodes[e.To]
			if seen[n.ID] {
				continue
			}
			if n.Kind == Rack {
				seen[n.ID] = true
				out = append(out, n.ID)
				continue // do not traverse through racks
			}
			if cur.switchHops < maxSwitchHops {
				seen[n.ID] = true
				queue = append(queue, state{n.ID, cur.switchHops + 1})
			}
		}
	}
	return out
}
