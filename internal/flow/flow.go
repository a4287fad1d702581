// Package flow models the traffic plane under Sheriff's management: flows
// between racks routed over the wired graph, per-link load accounting,
// hot-switch detection, and the FLOWREROUTE primitive of Sec. III.B —
// moving conflict flows onto paths that avoid congested switches, which
// the paper prefers over VM migration because rerouting is cheaper than a
// live migration.
package flow

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"sheriff/internal/topology"
)

// Flow is one unidirectional traffic aggregate between two rack nodes.
type Flow struct {
	ID             int
	Src, Dst       int     // topology node IDs (rack kind)
	Rate           float64 // offered rate in capacity units
	DelaySensitive bool

	path  []int // current route, inclusive of endpoints
	edges []int // the route's directed-edge IDs: edges[i] is path[i]→path[i+1]
}

// Path returns the flow's current route (nil if unrouted). The slice is
// owned by the network; treat it as read-only.
func (f *Flow) Path() []int { return f.path }

// Network tracks flows and per-link load over a topology graph. Link state
// is dense: one float per directed edge, indexed by topology.Edge.ID, so a
// load read is an array index and a flow's load accounting walks the edge
// IDs kept beside its path.
type Network struct {
	g      *topology.Graph
	flows  []*Flow   // ascending by ID (IDs are issued in increasing order)
	load   []float64 // edge ID → offered load; grown by loads()
	nextID int

	// sweep is the reusable shortest-path table behind admission: every
	// cheapestPath call searches again (the load-aware cost changes with
	// every admitted flow) in the same dist/parent storage, and its retained
	// weight vector is re-priced only on the links whose load was written
	// since: stale lists them, each once (isStale), and every write of a
	// load goes through touch. priced[id] is the load edge id's weight was
	// computed from — CheckInvariants holds every unlisted link to it —
	// and pricedVer the graph structure the vector was filled over.
	sweep     *topology.MultiSource
	priced    []float64
	pricedVer uint64
	stale     []int
	isStale   []bool // edge ID → listed in stale; sized when every link is priced
	one       [1]int // single-source argument scratch

	// masked is the table of the queries that price a different metric
	// than admission (some switches cost Inf): Reroute's one query, or a
	// whole RerouteAroundHot pass. The two never overlap.
	masked *topology.MultiSource

	// lower makes both tables' searches goal-directed: the static
	// DistanceCost distances from every rack, which routeCost never
	// undercuts on any edge (masked or not). It is built by the first search
	// (a network that routes nothing never allocates it), against the
	// wiring of lowerVer, and a rack's row is swept the first time the rack
	// is a destination.
	lower      *topology.MultiSource
	lowerVer   uint64
	lowerSwept []bool

	// Scratch reused across HotSwitches / RerouteAroundHot calls.
	hot     []int
	cands   []*Flow // a pass's candidates, largest rate first
	moved   []*Flow // a pass's result
	srcs    []int   // a pass's distinct sources: the rows of masked
	rowFull []bool  // rowFull[r]: row r exhausted its component; still good
}

// NewNetwork wraps a topology graph. Link loads start at zero.
func NewNetwork(g *topology.Graph) *Network {
	return &Network{g: g, sweep: &topology.MultiSource{}, masked: &topology.MultiSource{}}
}

// loads returns the load vector, extended with zeros when links were added
// to the graph since the last call (edge IDs never move, so existing
// entries stay put).
func (n *Network) loads() []float64 {
	if len(n.load) < n.g.NumEdges() {
		n.load = append(n.load, make([]float64, n.g.NumEdges()-len(n.load))...)
	}
	return n.load
}

// touch records that the load of link id is being written: its admission
// weight is out of date until the next admission search re-prices it. A
// link the marks do not cover yet — nothing priced so far, or wired since —
// needs no record: the next admission prices every link.
func (n *Network) touch(id int) {
	if id < len(n.isStale) && !n.isStale[id] {
		n.isStale[id] = true
		n.stale = append(n.stale, id)
	}
}

// ErrNoRoute is returned when no path (or no admissible path) exists.
var ErrNoRoute = errors.New("flow: no route between endpoints")

// AddFlow admits a flow and routes it on the currently cheapest path
// (shortest by transmission-aware cost: load-sensitive, so successive
// flows naturally spread across equal-cost Fat-Tree paths).
func (n *Network) AddFlow(src, dst int, rate float64, delaySensitive bool) (*Flow, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("flow: rate must be > 0, got %v", rate)
	}
	if src == dst {
		return nil, errors.New("flow: src == dst")
	}
	f := &Flow{ID: n.nextID, Src: src, Dst: dst, Rate: rate, DelaySensitive: delaySensitive}
	path, edges := n.cheapestPath(src, dst, nil)
	if path == nil {
		return nil, ErrNoRoute
	}
	n.nextID++
	n.flows = append(n.flows, f)
	n.applyPath(f, path, edges)
	return f, nil
}

// routeCost is the routing metric: distance-dominant with a load-dependent
// tie-breaker so equal-length paths spread load.
func routeCost(load []float64, e topology.Edge) float64 {
	u := load[e.ID] / e.Capacity
	return e.Distance * (1 + 0.1*u)
}

// lowerBound returns the table whose row for dst bounds a search towards
// dst from below (topology.MultiSource.SweepRowTo), or nil when dst is not
// a rack: such a search runs unbounded. Precondition: every load is ≥ 0, so
// that routeCost ≥ Distance on every edge. A negative load would let the
// bound overestimate and the search drop the cheapest path; the live network
// never produces one (rates are > 0, settle zeroes what a subtraction
// leaves) and Restore refuses a snapshot that carries one.
func (n *Network) lowerBound(dst int) *topology.MultiSource {
	if ver := n.g.StructVersion(); n.lower == nil || ver != n.lowerVer {
		if n.lower == nil {
			n.lower = &topology.MultiSource{}
		}
		racks := n.g.RackNodes()
		n.lower.Reset(n.g, racks)
		n.lower.Reweigh(topology.DistanceCost)
		n.lowerVer = ver
		n.lowerSwept = slices.Grow(n.lowerSwept[:0], len(racks))[:len(racks)]
		clear(n.lowerSwept)
	}
	row := n.lower.Row(dst)
	if row < 0 {
		return nil
	}
	if !n.lowerSwept[row] {
		n.one[0] = row
		n.lower.SweepRows(n.one[:])
		n.lowerSwept[row] = true
	}
	return n.lower
}

// cheapestPath picks the least-loaded shortest path, avoiding the given
// switch nodes, and returns it with its edge IDs. The search is point to
// point: it stops when dst settles.
func (n *Network) cheapestPath(src, dst int, avoid map[int]bool) (path, edges []int) {
	load := n.loads()
	lower := n.lowerBound(dst)
	n.one[0] = src
	if len(avoid) > 0 {
		// A masked query prices a different metric; it fills its own
		// table so the admission weights stay valid.
		n.masked.Reset(n.g, n.one[:])
		n.masked.Reweigh(func(e topology.Edge) float64 {
			if avoid[e.To] && e.To != dst && e.To != src {
				return topology.Inf
			}
			return routeCost(load, e)
		})
		n.masked.SweepRowTo(0, dst, lower)
		return route(n.masked, src, dst)
	}
	cost := func(e topology.Edge) float64 { return routeCost(load, e) }
	n.sweep.Reset(n.g, n.one[:])
	if ver := n.g.StructVersion(); n.priced == nil || ver != n.pricedVer {
		n.sweep.Reweigh(cost)
		n.priced = append(n.priced[:0], load...)
		n.pricedVer = ver
		// Marks for every link, none set, and room to list them all, so
		// that touch never allocates.
		n.isStale = slices.Grow(n.isStale[:0], len(load))[:len(load)]
		clear(n.isStale)
		n.stale = slices.Grow(n.stale[:0], len(load))
	} else {
		// The metric is a function of the link's load alone (capacity and
		// distance are fixed), so only links whose load moved need a call.
		n.sweep.ReweighEdges(n.stale, cost)
		for _, id := range n.stale {
			n.priced[id] = load[id]
			n.isStale[id] = false
		}
		n.stale = n.stale[:0]
	}
	n.sweep.SweepRowTo(0, dst, lower)
	return route(n.sweep, src, dst)
}

// SearchStats returns how many point-to-point route searches the network
// has run (admissions, reroutes) and how many nodes they settled in total.
func (n *Network) SearchStats() (searches, settled int) {
	s1, n1 := n.sweep.SearchStats()
	s2, n2 := n.masked.SearchStats()
	return s1 + s2, n1 + n2
}

// route reads a path and its edge IDs off a sweep; both nil when dst is
// unreachable. The slices are fresh: the flow keeps them.
func route(ms *topology.MultiSource, src, dst int) (path, edges []int) {
	path = ms.Path(src, dst)
	if path == nil {
		return nil, nil
	}
	edges, _ = ms.PathEdges(src, dst, make([]int, 0, len(path)-1))
	return path, edges
}

func (n *Network) applyPath(f *Flow, path, edges []int) {
	load := n.loads()
	for _, id := range edges {
		load[id] += f.Rate
		n.touch(id)
	}
	f.path, f.edges = path, edges
}

// settle zeroes a load that a subtraction left within rounding of empty,
// so an idle link reads exactly 0 rather than a residue of the flows that
// came and went.
func settle(load []float64, id int) {
	if load[id] < 1e-12 {
		load[id] = 0
	}
}

func (n *Network) clearPath(f *Flow) {
	load := n.loads()
	for _, id := range f.edges {
		load[id] -= f.Rate
		settle(load, id)
		n.touch(id)
	}
	f.path, f.edges = nil, nil
}

// owns reports whether f is a live flow of this network.
func (n *Network) owns(f *Flow) bool { return f != nil && n.Flow(f.ID) == f }

// SetRate changes a flow's offered rate in place, adjusting the load on
// its current path without re-routing it.
func (n *Network) SetRate(f *Flow, rate float64) error {
	if !n.owns(f) {
		return errors.New("flow: unknown flow")
	}
	if rate <= 0 {
		return fmt.Errorf("flow: rate must be > 0, got %v", rate)
	}
	delta := rate - f.Rate
	load := n.loads()
	for _, id := range f.edges {
		load[id] += delta
		settle(load, id)
		n.touch(id)
	}
	f.Rate = rate
	return nil
}

// index returns the position of flow id in the ID-ordered table.
func (n *Network) index(id int) (int, bool) {
	i := sort.Search(len(n.flows), func(i int) bool { return n.flows[i].ID >= id })
	return i, i < len(n.flows) && n.flows[i].ID == id
}

// RemoveFlow withdraws a flow and releases its load.
func (n *Network) RemoveFlow(id int) {
	i, ok := n.index(id)
	if !ok {
		return
	}
	n.clearPath(n.flows[i])
	n.flows = append(n.flows[:i], n.flows[i+1:]...)
}

// Flow returns the flow with the given ID, or nil.
func (n *Network) Flow(id int) *Flow {
	if i, ok := n.index(id); ok {
		return n.flows[i]
	}
	return nil
}

// Flows returns all flows ordered by ID.
func (n *Network) Flows() []*Flow { return append([]*Flow(nil), n.flows...) }

// LinkLoad returns the offered load on the directed link a→b.
func (n *Network) LinkLoad(a, b int) float64 {
	if id := n.g.EdgeIndex(a, b); id >= 0 {
		return n.loads()[id]
	}
	return 0
}

// LinkUtilization returns load/capacity on the directed link a→b, or 0
// when the link does not exist.
func (n *Network) LinkUtilization(a, b int) float64 {
	e, ok := n.g.EdgeBetween(a, b)
	if !ok {
		return 0
	}
	return n.EdgeUtilization(e)
}

// EdgeUtilization returns load/capacity for an already-resolved edge,
// skipping the O(degree) EdgeBetween lookup LinkUtilization pays.
func (n *Network) EdgeUtilization(e topology.Edge) float64 {
	if e.Capacity == 0 {
		return 0
	}
	return n.loads()[e.ID] / e.Capacity
}

// SwitchUtilization returns the maximum utilization over a switch's
// incident directed links — the congestion signal a QCN-style CP reports.
// Link capacity is symmetric (AddLink installs both directions alike), so
// the inbound direction reuses e.Capacity.
func (n *Network) SwitchUtilization(sw int) float64 {
	load := n.loads()
	max := 0.0
	for _, e := range n.g.Edges(sw) {
		if e.Capacity == 0 {
			continue
		}
		if u := load[e.ID] / e.Capacity; u > max {
			max = u
		}
		if u := load[topology.ReverseEdge(e.ID)] / e.Capacity; u > max {
			max = u
		}
	}
	return max
}

// HotSwitches returns switch node IDs whose utilization is at or above
// the threshold fraction, in ascending ID order. The slice is the
// network's scratch, overwritten by the next HotSwitches call.
func (n *Network) HotSwitches(threshold float64) []int {
	n.hot = n.hot[:0]
	for _, sw := range n.g.SwitchNodes() {
		if n.SwitchUtilization(sw) >= threshold {
			n.hot = append(n.hot, sw)
		}
	}
	return n.hot
}

// FlowsThrough returns the flows whose current path crosses the node, in
// ID order.
func (n *Network) FlowsThrough(node int) []*Flow {
	return n.appendFlowsThrough(nil, node)
}

func (n *Network) appendFlowsThrough(out []*Flow, node int) []*Flow {
	for _, f := range n.flows {
		if slices.Contains(f.path, node) {
			out = append(out, f)
		}
	}
	return out
}

// Reroute moves one flow onto the cheapest path avoiding the given
// switches. It returns ErrNoRoute (leaving the flow untouched) when no
// such path exists.
func (n *Network) Reroute(f *Flow, avoid map[int]bool) error {
	if !n.owns(f) {
		return errors.New("flow: unknown flow")
	}
	oldPath, oldEdges := f.path, f.edges
	n.clearPath(f)
	path, edges := n.cheapestPath(f.Src, f.Dst, avoid)
	if path == nil {
		n.applyPath(f, oldPath, oldEdges) // restore
		return ErrNoRoute
	}
	n.applyPath(f, path, edges)
	return nil
}

// RerouteAroundHot implements FLOWREROUTE for one hot switch: it moves
// non-delay-sensitive flows crossing the switch onto alternate paths
// until the switch's utilization drops below target (or no flow can
// move). Flows are tried largest-rate first — moving the biggest
// offenders first minimizes the number of touched flows. It returns the
// flows actually rerouted, in the network's scratch: the slice is
// overwritten by the next RerouteAroundHot call.
//
// A pass prices one weight vector — the admission metric with Inf on every
// edge into the hot switch — fills it once, and after each move re-prices
// only the moved flow's old and new links: the metric depends on a link's
// own load alone, so the patched vector is the vector a fresh fill would
// give. Each candidate is then one search from its source that stops at
// its destination. A search that found its destination is spent (the move
// it led to shifted the loads under it). A search that did not has
// exhausted the source's component, so its row is complete and is kept for
// the source's remaining candidates: their answer cannot turn from "no
// path" into a path within the pass, and for a destination the row does
// reach, its distances are exact and only the 0.1·u load tie-break is as
// of the sweep — which the next pass re-evaluates from fresh state.
func (n *Network) RerouteAroundHot(hot int, target float64) []*Flow {
	n.moved = n.moved[:0]
	n.cands = n.appendFlowsThrough(n.cands[:0], hot)
	if len(n.cands) == 0 {
		return n.moved
	}
	slices.SortStableFunc(n.cands, func(a, b *Flow) int { return cmp.Compare(b.Rate, a.Rate) })
	n.srcs = n.srcs[:0]
	for _, f := range n.cands {
		n.srcs = append(n.srcs, f.Src)
	}
	slices.Sort(n.srcs)
	n.srcs = slices.Compact(n.srcs)
	n.rowFull = slices.Grow(n.rowFull[:0], len(n.srcs))[:len(n.srcs)]
	clear(n.rowFull)

	load := n.loads()
	cost := func(e topology.Edge) float64 {
		if e.To == hot {
			return topology.Inf
		}
		return routeCost(load, e)
	}
	ms := n.masked
	ms.Reset(n.g, n.srcs)
	ms.Reweigh(cost)
	for _, f := range n.cands {
		if n.SwitchUtilization(hot) < target {
			break
		}
		if f.DelaySensitive {
			continue // the PRIORITY rule: delay-sensitive flows stay put
		}
		old := f.edges
		if f.Src == hot || f.Dst == hot {
			// The mask exempts a flow's endpoints, so this flow is routed
			// unmasked, off its own load: admission's metric, and
			// admission's table. Even a failed attempt takes the flow's
			// rate off its links and puts it back, which can move a load
			// by an ulp, so the links are re-priced either way.
			if err := n.Reroute(f, nil); err == nil {
				n.moved = append(n.moved, f)
			}
		} else {
			row := ms.Row(f.Src)
			if !n.rowFull[row] {
				n.rowFull[row] = !ms.SweepRowTo(row, f.Dst, n.lowerBound(f.Dst))
			}
			path, edges := route(ms, f.Src, f.Dst)
			if path == nil {
				continue // no route around the hot switch; flow stays put
			}
			n.rowFull[row] = false
			n.clearPath(f)
			n.applyPath(f, path, edges)
			n.moved = append(n.moved, f)
		}
		ms.ReweighEdges(old, cost)
		ms.ReweighEdges(f.edges, cost)
	}
	return n.moved
}

// UpdateGraphBandwidth writes residual bandwidth (capacity − load) back
// into the topology graph so the migration cost model sees the traffic
// plane's state. Negative residuals clamp to zero. A link's two
// directions share one bandwidth figure; it is the smaller of the two
// residuals, the conservative reading of the undirected link.
func (n *Network) UpdateGraphBandwidth() {
	load := n.loads()
	for id := 0; id < len(load); id += 2 { // one visit per link: IDs 2k and 2k+1
		c := n.g.EdgeAt(id).Capacity
		residual := c - load[id]
		if residual < 0 {
			residual = 0
		}
		rev := c - load[id+1]
		if rev < 0 {
			rev = 0
		}
		if rev < residual {
			residual = rev
		}
		n.g.SetBandwidthAt(id, residual)
	}
}
