package topology

import (
	"container/heap"

	"sheriff/internal/pool"
)

// This file preserves the seed's routing walkers essentially verbatim:
// pointer-chasing [][]Edge adjacency, an EdgeCost closure call per
// relaxation, container/heap with interface boxing and map-backed result
// tables. They are the ground truth for the equivalence tests and the
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
