// Package flow models the traffic plane under Sheriff's management: flows
// between racks routed over the wired graph, per-link load accounting,
// hot-switch detection, and the FLOWREROUTE primitive of Sec. III.B —
// moving conflict flows onto paths that avoid congested switches, which
// the paper prefers over VM migration because rerouting is cheaper than a
// live migration.
//
// A flow's route (Flow.Path) is valid until the flow is rerouted or
// removed: the network keeps the storage of the routes no flow holds any
// more on a free list, and draws every new route from it, so that a
// reroute, or an admission after a removal, allocates no path. The list
// holds at most one route more than the most flows ever live at once.
// Flow records are recycled the same way: RemoveFlow puts the *Flow on a
// free list and AddFlow takes it off again, so an admission after a
// removal allocates nothing at all, and a removed *Flow may come back as
// another flow. Hold a flow by its ID across a RemoveFlow, not by pointer.
package flow

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"sheriff/internal/topology"
)

// nodeReading is one node's cached congestion reading (Network.readings).
type nodeReading struct {
	util     float64 // a switch's SwitchUtilization, a rack's OutUtilization
	dirty    bool    // a load on the node's links was written since util was read
	isSwitch bool
}

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
// owned by the network; treat it as read-only. It is valid until the flow
// is rerouted or removed: the network then reuses its storage for another
// route.
func (f *Flow) Path() []int { return f.path }

// routeBuf is the storage of one route, a path and its edge IDs, kept on
// the network's free list while no flow holds it.
type routeBuf struct{ path, edges []int }

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
	// whole RerouteAroundHot pass. The two never overlap. Its weights are
	// admission's, brought current, with the avoided switches blocked
	// (topology.MultiSource.WeighFrom); block lists Reroute's.
	masked *topology.MultiSource
	block  []int

	// lower makes both tables' searches goal-directed: the static
	// DistanceCost distances from every rack, which routeCost never
	// undercuts on any edge (masked or not). It is built by the first search
	// (a network that routes nothing never allocates it), against the
	// wiring of lowerVer, and a rack's row is swept the first time the rack
	// is a destination.
	lower      *topology.MultiSource
	lowerVer   uint64
	lowerSwept []bool

	// The congestion monitors' input, kept per node: readings[v] is the
	// reading the monitors take of v — for a switch the largest
	// load/capacity over its incident links (HotSwitches), for a rack over
	// its outgoing links, the ToR uplinks (the queue monitors) — and
	// whether it is out of date. Loads are written a route at a time
	// (applyPath, clearPath, SetRate), and the ends of a route's links are
	// its nodes, so each write marks the route's nodes dirty (markPath);
	// ndirty counts the marked nodes. HotSwitches first rescans them
	// (refreshReadings) on the goroutine that writes loads; a read of a
	// node marked since, or of the other kind's reading, scans in place and
	// keeps nothing, so reads never write and the monitor shards only read.
	// readVer is the wiring the entries cover; readOK is false until the
	// first refresh and after a Restore, and then the next refresh rescans
	// every node. marked counts the rescans refreshes are called on for.
	readings []nodeReading
	ndirty   int
	readOK   bool
	readVer  uint64
	marked   int

	// Scratch reused across HotSwitches / RerouteAroundHot calls.
	hot     []int
	cands   []*Flow // a pass's candidates, largest rate first
	moved   []*Flow // a pass's result
	srcs    []int   // a pass's distinct sources: the rows of masked
	rowFull []bool  // rowFull[r]: row r exhausted its component; still good

	// byEnds is every link's ID in (From, To) order, the order Snapshot
	// lists loads in, sorted for the wiring of byEndsVer (linkOrder).
	byEnds    []int
	byEndsVer uint64

	// free holds the storage of the routes no flow holds any more — a
	// removed flow's, a rerouted flow's old one — for route to fill again.
	// A route goes on it only after its last read. A new route is made only
	// when the list is empty, or in place of one too small for its path,
	// and at most one is held beside the live flows' (a reroute's new
	// route, found while the old one may still be restored): hence the
	// package doc's bound.
	free    []routeBuf
	longest int // nodes on the longest route made so far; see route
	// spare holds the records of removed flows for AddFlow to fill again:
	// records ever made are at most the most flows ever live at once.
	spare []*Flow
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

// markPath records that the loads of a route's links are being written:
// the readings of its nodes, the ends of those links, are out of date
// until the next refresh rescans them. A node the marks do not cover
// yet — nothing refreshed so far, or wired since — needs no record: the
// next refresh rescans every node.
func (n *Network) markPath(path []int) {
	for _, v := range path {
		if v < len(n.readings) && !n.readings[v].dirty {
			n.readings[v].dirty = true
			n.ndirty++
			n.marked++
		}
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
	path, edges := n.cheapestPath(src, dst, nil)
	if path == nil {
		return nil, ErrNoRoute
	}
	var f *Flow
	if last := len(n.spare) - 1; last >= 0 {
		f, n.spare[last] = n.spare[last], nil
		n.spare = n.spare[:last]
	} else {
		f = new(Flow)
	}
	*f = Flow{ID: n.nextID, Src: src, Dst: dst, Rate: rate, DelaySensitive: delaySensitive}
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
	lower := n.lowerBound(dst)
	adm := n.admission()
	n.one[0] = src
	if len(avoid) > 0 {
		// A masked query prices a different metric; it fills its own
		// table so the admission weights stay valid. The mask exempts the
		// flow's endpoints.
		n.block = n.block[:0]
		for v, ok := range avoid {
			if ok && v != src && v != dst {
				n.block = append(n.block, v)
			}
		}
		n.masked.Reset(n.g, n.one[:])
		n.masked.WeighFrom(adm, n.block...)
		n.masked.SweepRowTo(0, dst, lower)
		return n.route(n.masked, src, dst)
	}
	adm.Reset(n.g, n.one[:])
	adm.SweepRowTo(0, dst, lower)
	return n.route(adm, src, dst)
}

// admission brings admission's table bound to the current wiring, with its
// weight vector priced from the current loads, and returns it. Its source
// set is the caller's to Reset; the weights survive that.
func (n *Network) admission() *topology.MultiSource {
	load := n.loads()
	cost := func(e topology.Edge) float64 { return routeCost(load, e) }
	if ver := n.g.StructVersion(); n.priced == nil || ver != n.pricedVer {
		n.sweep.Reset(n.g, nil)
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
	return n.sweep
}

// SearchStats returns how many point-to-point route searches the network
// has run (admissions, reroutes) and how many nodes they settled in total.
func (n *Network) SearchStats() (searches, settled int) {
	s1, n1 := n.sweep.SearchStats()
	s2, n2 := n.masked.SearchStats()
	return s1 + s2, n1 + n2
}

// Rescans returns how many node rescans the refreshes of the cached
// congestion readings have been called on for so far: every node on the
// first HotSwitches and on the first after a change of wiring or a
// Restore, and after that each node of a route whose loads were written
// since the node's last rescan, once.
func (n *Network) Rescans() int { return n.marked }

// route reads a path and its edge IDs off a sweep; both nil when dst is
// unreachable. The flow keeps the slices: they are the last route on the
// free list, taken off it, or fresh when the list is empty. A route on the
// list is kept whatever its room, and grows only when a path does not fit
// it. Fresh and grown storage has room for twice the longest path made so
// far, so a route first made for a shortest path still takes a reroute's
// longer detour: once the most routes ever held at once and the longest
// path of the fabric have been seen, admissions and reroutes make storage
// only for the routes made while the longest path was under half as long.
func (n *Network) route(ms *topology.MultiSource, src, dst int) (path, edges []int) {
	hops := ms.Hops(src, dst)
	if hops < 0 {
		return nil, nil
	}
	n.longest = max(n.longest, hops+1)
	var buf routeBuf
	if last := len(n.free) - 1; last >= 0 {
		buf = n.free[last]
		n.free[last] = routeBuf{}
		n.free = n.free[:last]
	}
	if cap(buf.path) < hops+1 || cap(buf.edges) < hops {
		buf = routeBuf{make([]int, 0, 2*n.longest), make([]int, 0, 2*n.longest)}
	}
	path = ms.Path(src, dst, buf.path)
	edges, _ = ms.PathEdges(src, dst, buf.edges)
	return path, edges
}

// recycle puts a route no flow holds any more on the free list. The caller
// has made its last read of the slices.
func (n *Network) recycle(path, edges []int) {
	if cap(path) > 0 {
		n.free = append(n.free, routeBuf{path, edges})
	}
}

func (n *Network) applyPath(f *Flow, path, edges []int) {
	load := n.loads()
	for _, id := range edges {
		load[id] += f.Rate
		n.touch(id)
	}
	n.markPath(path)
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
	n.markPath(f.path)
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
	n.markPath(f.path)
	f.Rate = rate
	return nil
}

// index returns the position of flow id in the ID-ordered table.
func (n *Network) index(id int) (int, bool) {
	i := sort.Search(len(n.flows), func(i int) bool { return n.flows[i].ID >= id })
	return i, i < len(n.flows) && n.flows[i].ID == id
}

// RemoveFlow withdraws a flow and releases its load. Its route's storage
// and its record go back on the free lists: the next AddFlow may return the
// same *Flow as a new flow.
func (n *Network) RemoveFlow(id int) {
	i, ok := n.index(id)
	if !ok {
		return
	}
	f := n.flows[i]
	path, edges := f.path, f.edges
	n.clearPath(f)
	n.recycle(path, edges)
	n.flows = slices.Delete(n.flows, i, i+1)
	n.spare = append(n.spare, f)
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

// scanAll returns the largest utilization over node v's incident links,
// both directions, skipping links without capacity. Link capacity is
// symmetric (AddLink installs both directions alike), so the inbound
// direction reuses e.Capacity.
func (n *Network) scanAll(v int) float64 {
	load := n.loads()
	max := 0.0
	for _, e := range n.g.Edges(v) {
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

// scanOut returns the largest utilization over node v's outgoing links,
// skipping links without capacity.
func (n *Network) scanOut(v int) float64 {
	load := n.loads()
	max := 0.0
	for _, e := range n.g.Edges(v) {
		if e.Capacity == 0 {
			continue
		}
		if u := load[e.ID] / e.Capacity; u > max {
			max = u
		}
	}
	return max
}

// read takes node v's reading from its links: scanAll for a switch,
// scanOut for a rack.
func (n *Network) read(v int, isSwitch bool) float64 {
	if isSwitch {
		return n.scanAll(v)
	}
	return n.scanOut(v)
}

// refreshReadings brings the cached readings up to date: it rescans the
// marked nodes, or every node when the entries do not cover the wiring
// yet, or no longer (a change of wiring, a Restore). It walks the nodes in
// order — the adjacency lists lie in that order, and on a busy fabric most
// nodes are marked — and stops after the last marked one; with none
// marked it costs nothing.
func (n *Network) refreshReadings() {
	if ver := n.g.StructVersion(); !n.readOK || ver != n.readVer {
		nodes := n.g.NumNodes()
		n.readings = slices.Grow(n.readings[:0], nodes)[:nodes]
		for v := range n.readings {
			sw := n.g.Node(v).Kind == topology.Switch
			n.readings[v] = nodeReading{util: n.read(v, sw), isSwitch: sw}
		}
		n.ndirty = 0
		n.marked += nodes
		n.readOK, n.readVer = true, ver
		return
	}
	for v := 0; n.ndirty > 0; v++ {
		if r := &n.readings[v]; r.dirty {
			r.util = n.read(v, r.isSwitch)
			r.dirty = false
			n.ndirty--
		}
	}
}

// cached returns node v's cached reading when it is current and of the
// kind asked for (a switch's, or a rack's); ok is false otherwise.
func (n *Network) cached(v int, isSwitch bool) (util float64, ok bool) {
	if !n.readOK || n.readVer != n.g.StructVersion() {
		return 0, false
	}
	r := n.readings[v]
	return r.util, !r.dirty && r.isSwitch == isSwitch
}

// SwitchUtilization returns the maximum utilization over a switch's
// incident directed links — the congestion signal a QCN-style CP reports.
// It only reads: calls may run concurrently while no load is written.
func (n *Network) SwitchUtilization(sw int) float64 {
	if u, ok := n.cached(sw, true); ok {
		return u
	}
	return n.scanAll(sw)
}

// OutUtilization returns the maximum utilization over a node's outgoing
// links: for a rack, over its ToR uplinks, the quantity the shim's queue
// monitor watches. It only reads: calls may run concurrently while no load
// is written.
func (n *Network) OutUtilization(node int) float64 {
	if u, ok := n.cached(node, false); ok {
		return u
	}
	return n.scanOut(node)
}

// HotSwitches returns switch node IDs whose utilization is at or above
// the threshold fraction, in ascending ID order. It first rescans every
// node whose links' loads were written since the last call, and then
// reads the cache: on a fabric whose loads did not move, it scans no link.
// The slice is the network's scratch, overwritten by the next HotSwitches
// call.
func (n *Network) HotSwitches(threshold float64) []int {
	n.refreshReadings()
	n.hot = n.hot[:0]
	for _, sw := range n.g.SwitchNodes() {
		if n.readings[sw].util >= threshold {
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
	if err := n.reroute(f, avoid); err != nil {
		return err
	}
	n.recycle(oldPath, oldEdges)
	return nil
}

// reroute is Reroute without the recycling: the old route's storage stays
// with the caller, to recycle after its last read of it.
func (n *Network) reroute(f *Flow, avoid map[int]bool) error {
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
// edge into the hot switch — copied once from admission's, brought current
// (topology.MultiSource.WeighFrom), and after each move re-prices only the
// moved flow's old and new links: the metric depends on a link's own load
// alone, so the patched vector is the vector a fresh fill would give. Each
// candidate is then one search from its source that stops at its
// destination. A search that found its destination is spent (the move
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
	adm := n.admission()
	ms := n.masked
	ms.Reset(n.g, n.srcs)
	ms.WeighFrom(adm, hot)
	for _, f := range n.cands {
		if n.SwitchUtilization(hot) < target {
			break
		}
		if f.DelaySensitive {
			continue // the PRIORITY rule: delay-sensitive flows stay put
		}
		oldPath, old := f.path, f.edges
		var ok bool
		if f.Src == hot || f.Dst == hot {
			// The mask exempts a flow's endpoints, so this flow is routed
			// unmasked, off its own load: admission's metric, and
			// admission's table. Even a failed attempt takes the flow's
			// rate off its links and puts it back, which can move a load
			// by an ulp, so the links are re-priced either way.
			ok = n.reroute(f, nil) == nil
		} else {
			row := ms.Row(f.Src)
			if !n.rowFull[row] {
				n.rowFull[row] = !ms.SweepRowTo(row, f.Dst, n.lowerBound(f.Dst))
			}
			path, edges := n.route(ms, f.Src, f.Dst)
			if path == nil {
				continue // no route around the hot switch; flow stays put
			}
			n.rowFull[row] = false
			n.clearPath(f)
			n.applyPath(f, path, edges)
			ok = true
		}
		ms.ReweighEdges(old, cost)
		ms.ReweighEdges(f.edges, cost)
		if ok {
			n.moved = append(n.moved, f)
			n.recycle(oldPath, old) // after its last read, just above
		}
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
