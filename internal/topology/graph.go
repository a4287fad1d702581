// Package topology builds the wired network graphs of the paper's Sec. II.C:
// G_r = (V ∪ S, E_r), where V is the set of rack delegation nodes (shims,
// co-located with ToR switches) and S the set of aggregation/core switches.
// It provides Fat-Tree and BCube constructors matching the simulation
// settings of Sec. VI.B, and Floyd–Warshall all-pairs shortest paths used
// to collapse the transmission cost g(v_i, v_p, e_ip) into G(v_i, v_p)
// (Sec. V.A.2).
//
// Shortest paths on the per-period path come from MultiSource tables,
// which allocate nothing once warm: MultiSource.Path and PathEdges write a
// route into a buffer the caller passes, and MultiSource.WeighFrom prices a
// table as another table's weights with some nodes blocked (every edge into
// them Inf), at a copy instead of a cost call per directed edge.
package topology

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// NodeKind distinguishes rack delegation nodes from interior switches.
type NodeKind int

const (
	// Rack is a ToR switch + shim delegation node (an element of V).
	Rack NodeKind = iota
	// Switch is an aggregation or core switch (an element of S).
	Switch
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case Rack:
		return "rack"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a vertex of the wired graph.
type Node struct {
	ID    int
	Kind  NodeKind
	Name  string
	Pod   int // pod index (Fat-Tree) or group index (BCube); -1 if n/a
	Level int // 0 = ToR/edge, 1 = aggregation, 2 = core (BCube: switch level)
}

// Edge is a directed half of a physical link. Links are installed in both
// directions with identical attributes.
//
// ID is the edge's stable index: the k-th link (in AddLink order) owns IDs
// 2k (a→b) and 2k+1 (b→a), so IDs are dense in [0, NumEdges), never move
// when the graph grows, and the opposite direction of edge i is
// ReverseEdge(i). Per-link state kept outside the graph (the traffic
// plane's loads) is a plain slice over it.
type Edge struct {
	ID        int
	From, To  int
	Capacity  float64 // C(e): maximum capacity
	Distance  float64 // D(e): physical distance
	Bandwidth float64 // B(e): currently available bandwidth
}

// Graph is a mutable wired-network graph. Shortest-path sweeps run over a
// flattened CSR view built lazily from the adjacency: structural changes
// invalidate it, bandwidth updates patch it in place. Concurrent readers
// (DijkstraFrom and friends) may trigger the build simultaneously, so it
// is guarded by a mutex; mutations are not goroutine-safe, as before.
type Graph struct {
	nodes []Node
	adj   [][]Edge
	loc   []edgeLoc // edge ID → adjacency slot

	racks, switches []int // node IDs by kind, in creation order

	structVer uint64 // bumped by AddNode/AddLink
	csrMu     sync.Mutex
	csrRep    *csr

	// regions is the rack-neighbour lists of this wiring, shared with the
	// graph's clones (Clone) until a structural change; nil on a graph
	// never cloned, whose every AppendRackNeighbors walks.
	regions atomic.Pointer[rackRegions]
}

// edgeLoc places a directed edge in the adjacency: adj[node][pos]. The CSR
// keeps per-node insertion order, so the same edge is CSR slot
// rowStart[node]+pos.
type edgeLoc struct{ node, pos int32 }

// ReverseEdge returns the ID of the opposite direction of the same link.
func ReverseEdge(id int) int { return id ^ 1 }

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind NodeKind, name string, pod, level int) int {
	id := len(g.nodes)
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name, Pod: pod, Level: level})
	g.adj = append(g.adj, nil)
	if kind == Rack {
		g.racks = append(g.racks, id)
	} else if kind == Switch {
		g.switches = append(g.switches, id)
	}
	g.structureChanged()
	return id
}

// AddLink installs a bidirectional link between a and b.
func (g *Graph) AddLink(a, b int, capacity, distance float64) error {
	if err := g.check(a); err != nil {
		return err
	}
	if err := g.check(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("topology: self-loop on node %d", a)
	}
	id := len(g.loc)
	g.loc = append(g.loc, edgeLoc{int32(a), int32(len(g.adj[a]))}, edgeLoc{int32(b), int32(len(g.adj[b]))})
	g.adj[a] = append(g.adj[a], Edge{ID: id, From: a, To: b, Capacity: capacity, Distance: distance, Bandwidth: capacity})
	g.adj[b] = append(g.adj[b], Edge{ID: id + 1, From: b, To: a, Capacity: capacity, Distance: distance, Bandwidth: capacity})
	g.structureChanged()
	return nil
}

// sizedGraph builds a graph whose final size its constructor knows
// (NewFatTree, NewBCube, NewLeafSpine): the node, edge-location and kind
// lists are made at their final length, every node's adjacency is carved
// at its final degree from one edge array of 2 × links, and the node names
// are cut from one string, so a fabric costs one allocation per element
// kind whatever its size. Links still go through AddLink, which appends
// within the capacity carved; a degree given short would only make AddLink
// grow that node's row, as it does for a graph built by hand.
type sizedGraph struct {
	*Graph
	edges []Edge  // the adjacency array's uncarved tail
	names []byte  // every node's name, back to back
	ends  []int32 // ends[id]: where node id's name ends in names
}

// newSizedGraph starts a graph of the given rack, switch and link counts
// whose node names are at most nameLen bytes long.
func newSizedGraph(racks, switches, links, nameLen int) *sizedGraph {
	n := racks + switches
	return &sizedGraph{
		Graph: &Graph{
			nodes:    make([]Node, 0, n),
			adj:      make([][]Edge, 0, n),
			loc:      make([]edgeLoc, 0, 2*links),
			racks:    make([]int, 0, racks),
			switches: make([]int, 0, switches),
		},
		edges: make([]Edge, 2*links),
		names: make([]byte, 0, n*nameLen),
		ends:  make([]int32, 0, n),
	}
}

// node adds a node with room for degree edges, named prefix-i, or
// prefix-i-j when j >= 0, and returns its ID.
func (b *sizedGraph) node(kind NodeKind, pod, level, degree int, prefix string, i, j int) int {
	id := b.AddNode(kind, "", pod, level)
	b.adj[id], b.edges = b.edges[:0:degree], b.edges[degree:]
	b.names = strconv.AppendInt(append(append(b.names, prefix...), '-'), int64(i), 10)
	if j >= 0 {
		b.names = strconv.AppendInt(append(b.names, '-'), int64(j), 10)
	}
	b.ends = append(b.ends, int32(len(b.names)))
	return id
}

// graph cuts every node's name from one string and returns the graph.
func (b *sizedGraph) graph() *Graph {
	names, start := string(b.names), int32(0)
	for id, end := range b.ends {
		b.nodes[id].Name, start = names[start:end], end
	}
	return b.Graph
}

// nameLen is the length of the longest name prefix-i-j with i and j below
// n: the bound newSizedGraph takes.
func nameLen(prefix string, n int) int {
	digits := 1
	for m := n - 1; m >= 10; m /= 10 {
		digits++
	}
	return len(prefix) + 2*(1+digits)
}

// Clone returns a copy of g that shares no mutable memory with it: the
// node, edge-location and kind lists copied, and every node's adjacency
// re-sliced, at its degree, from one copy of the edge array, so a clone
// costs one allocation per element kind whatever the fabric's size. Node
// names are immutable strings, shared. The flattened view is built anew
// on the clone's first sweep. A graph and its clones walk each rack's
// neighbours once between them (AppendRackNeighbors) until one of them
// changes structure. Clones of one graph may be made on several
// goroutines at once: Clone's one write to g, attaching those lists on
// the first clone, is atomic.
func (g *Graph) Clone() *Graph {
	kinds := make([]int, len(g.racks)+len(g.switches))
	n := copy(kinds, g.racks)
	copy(kinds[n:], g.switches)
	c := &Graph{
		nodes:     slices.Clone(g.nodes),
		adj:       make([][]Edge, len(g.adj)),
		loc:       slices.Clone(g.loc),
		racks:     kinds[:n:n],
		switches:  kinds[n:],
		structVer: g.structVer,
	}
	edges := make([]Edge, len(g.loc))
	for u, es := range g.adj {
		c.adj[u], edges = edges[:len(es):len(es)], edges[len(es):]
		copy(c.adj[u], es)
	}
	r := g.regions.Load()
	if r == nil {
		g.regions.CompareAndSwap(nil, &rackRegions{})
		r = g.regions.Load()
	}
	c.regions.Store(r)
	return c
}

// structureChanged drops what was derived from the wiring: the flattened
// view, and the rack-neighbour lists shared with other graphs of the old
// wiring, which keep them.
func (g *Graph) structureChanged() {
	g.structVer++
	g.csrRep = nil
	g.regions.Store(nil)
}

// StructVersion returns a counter bumped by every structural change
// (AddNode/AddLink). Bandwidth updates do not bump it, so callers caching
// structure-only derivations (physical-distance tables) can skip
// recomputation while the wiring is unchanged.
func (g *Graph) StructVersion() uint64 { return g.structVer }

// ensureCSR returns the flattened edge-array view, building it on first
// use after a structural change. Safe for concurrent readers.
func (g *Graph) ensureCSR() *csr {
	g.csrMu.Lock()
	defer g.csrMu.Unlock()
	if g.csrRep == nil {
		g.csrRep = buildCSR(g)
	}
	return g.csrRep
}

func (g *Graph) check(id int) error {
	if id < 0 || id >= len(g.nodes) {
		return fmt.Errorf("topology: node %d out of range [0,%d)", id, len(g.nodes))
	}
	return nil
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) Node { return g.nodes[id] }

// Edges returns the outgoing edges of a node. The returned slice is the
// graph's own storage; treat it as read-only.
func (g *Graph) Edges(id int) []Edge { return g.adj[id] }

// EdgeBetween returns the directed edge a→b if a link exists.
func (g *Graph) EdgeBetween(a, b int) (Edge, bool) {
	if a < 0 || a >= len(g.adj) {
		return Edge{}, false
	}
	for _, e := range g.adj[a] {
		if e.To == b {
			return e, true
		}
	}
	return Edge{}, false
}

// NumEdges returns the number of directed edges; edge IDs are [0, NumEdges).
func (g *Graph) NumEdges() int { return len(g.loc) }

// EdgeAt returns the directed edge with the given ID.
func (g *Graph) EdgeAt(id int) Edge {
	l := g.loc[id]
	return g.adj[l.node][l.pos]
}

// EdgeIndex returns the ID of the directed edge a→b (the first one
// installed, as EdgeBetween), or -1 if no link exists.
func (g *Graph) EdgeIndex(a, b int) int {
	if e, ok := g.EdgeBetween(a, b); ok {
		return e.ID
	}
	return -1
}

// SetBandwidth updates the available bandwidth on both directions of the
// link a–b. It returns false if no such link exists.
func (g *Graph) SetBandwidth(a, b int, bw float64) bool {
	id := g.EdgeIndex(a, b)
	if id < 0 {
		return false
	}
	g.SetBandwidthAt(id, bw)
	return true
}

// SetBandwidthAt is SetBandwidth for a link named by either of its edge
// IDs: O(1), no adjacency scan. Both directions are updated and the CSR
// view, when built, is patched in place.
func (g *Graph) SetBandwidthAt(id int, bw float64) {
	for _, l := range [2]edgeLoc{g.loc[id], g.loc[ReverseEdge(id)]} {
		g.adj[l.node][l.pos].Bandwidth = bw
		if c := g.csrRep; c != nil {
			c.bandwidth[c.rowStart[l.node]+l.pos] = bw
		}
	}
}

// Racks returns the IDs of all rack nodes, in creation order.
func (g *Graph) Racks() []int { return append([]int(nil), g.racks...) }

// Switches returns the IDs of all switch nodes, in creation order.
func (g *Graph) Switches() []int { return append([]int(nil), g.switches...) }

// RackNodes is Racks without the copy: the graph's own list, for per-step
// callers. Treat it as read-only.
func (g *Graph) RackNodes() []int { return g.racks }

// SwitchNodes is Switches without the copy. Treat it as read-only.
func (g *Graph) SwitchNodes() []int { return g.switches }

// Neighbors returns the IDs adjacent to a node.
func (g *Graph) Neighbors(id int) []int {
	es := g.adj[id]
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.To
	}
	return out
}

// RackNeighbors returns the rack nodes reachable from rack id through at
// most maxSwitchHops interior switches (one-hop wired neighbors for
// maxSwitchHops = 1, the paper's "dominating one hop wired neighbors").
// The origin rack is not included.
func (g *Graph) RackNeighbors(id int, maxSwitchHops int) []int {
	return g.AppendRackNeighbors(nil, id, maxSwitchHops, &NeighborScratch{})
}

// NeighborScratch is the memory of AppendRackNeighbors' walk, reused from
// call to call. The zero value is ready to use.
type NeighborScratch struct {
	seen  []uint32 // seen[v] == epoch ⇒ v visited this walk
	epoch uint32
	queue []switchHop
}

type switchHop struct{ node, switchHops int }

// AppendRackNeighbors is RackNeighbors appending to out, with the walk's
// memory in s: allocation-free once s and out have grown. On a graph that
// has been cloned, or is a clone, a rack's list is read from the lists its
// wiring shares (rackRegions), walked once for every rack at each radius.
func (g *Graph) AppendRackNeighbors(out []int, id int, maxSwitchHops int, s *NeighborScratch) []int {
	if r := g.regions.Load(); r != nil && g.nodes[id].Kind == Rack {
		return append(out, r.lists(g, maxSwitchHops)[id]...)
	}
	return g.walkRackNeighbors(out, id, maxSwitchHops, s)
}

// rackRegions is the rack-neighbour lists of one wiring, shared by a graph
// and its clones until one of them changes structure: by hop radius, every
// rack's list in the order walkRackNeighbors finds it, indexed by node ID
// (nil for a switch) and cut from one array. The first call at a radius
// walks every rack, on whichever graph of the wiring asks; the lists are
// never written after.
type rackRegions struct {
	mu     sync.Mutex
	byHops map[int][][]int
}

// lists returns the rack-neighbour lists at hops, walking them on g first
// if no graph of the wiring has asked at that radius.
func (r *rackRegions) lists(g *Graph, hops int) [][]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.byHops[hops]; ok {
		return l
	}
	var s NeighborScratch
	var arena []int
	ends := make([]int, len(g.racks))
	for i, id := range g.racks {
		arena = g.walkRackNeighbors(arena, id, hops, &s)
		ends[i] = len(arena)
	}
	l, start := make([][]int, len(g.nodes)), 0
	for i, id := range g.racks {
		l[id], start = arena[start:ends[i]:ends[i]], ends[i]
	}
	if r.byHops == nil {
		r.byHops = make(map[int][][]int)
	}
	r.byHops[hops] = l
	return l
}

// walkRackNeighbors is AppendRackNeighbors' walk.
func (g *Graph) walkRackNeighbors(out []int, id int, maxSwitchHops int, s *NeighborScratch) []int {
	if len(s.seen) < len(g.nodes) {
		s.seen, s.epoch = make([]uint32, len(g.nodes)), 0
	}
	if s.epoch++; s.epoch == 0 {
		clear(s.seen)
		s.epoch = 1
	}
	ep, seen := s.epoch, s.seen
	seen[id] = ep
	if cap(s.queue) == 0 {
		// Room for the first ring, all a one-hop region ever queues.
		s.queue = make([]switchHop, 0, 1+len(g.adj[id]))
	}
	queue := append(s.queue[:0], switchHop{id, 0})
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, e := range g.adj[cur.node] {
			v := e.To
			if seen[v] == ep {
				continue
			}
			if g.nodes[v].Kind == Rack {
				seen[v] = ep
				out = append(out, v)
				continue // do not traverse through racks
			}
			if cur.switchHops < maxSwitchHops {
				seen[v] = ep
				queue = append(queue, switchHop{v, cur.switchHops + 1})
			}
		}
	}
	s.queue = queue[:0]
	return out
}

// Inf is the distance reported between disconnected nodes.
var Inf = math.Inf(1)
