package flow

import (
	"fmt"
	"sort"
)

// FlowSnap is the serialized form of one flow, path included: routes are
// load-sensitive at admission time and persist across reroutes, so they
// cannot be recomputed on restore without diverging from the live
// network.
type FlowSnap struct {
	ID             int     `json:"id"`
	Src            int     `json:"src"`
	Dst            int     `json:"dst"`
	Rate           float64 `json:"rate"`
	DelaySensitive bool    `json:"delay_sensitive,omitempty"`
	Path           []int   `json:"path,omitempty"`
}

// LinkLoad is one directed link's exact offered load. Loads are in
// principle derivable from the flow paths, but the live network updates
// them incrementally (SetRate adds and subtracts rates in place), so the
// accumulated floating-point state differs from a fresh recompute by
// ulps. Carrying the exact values keeps a restored network bit-identical
// to the one that never stopped.
type LinkLoad struct {
	A    int     `json:"a"`
	B    int     `json:"b"`
	Load float64 `json:"load"`
}

// Snapshot captures the network's flow table and exact link loads.
type Snapshot struct {
	Flows  []FlowSnap `json:"flows"`
	Loads  []LinkLoad `json:"loads,omitempty"`
	NextID int        `json:"next_id"`
}

// Snapshot returns a deep copy of the flow table, ordered by flow ID, and
// the non-zero link loads, ordered by (A, B).
func (n *Network) Snapshot() *Snapshot {
	snap := &Snapshot{Flows: make([]FlowSnap, 0, len(n.flows)), NextID: n.nextID}
	for _, f := range n.flows {
		snap.Flows = append(snap.Flows, FlowSnap{
			ID:             f.ID,
			Src:            f.Src,
			Dst:            f.Dst,
			Rate:           f.Rate,
			DelaySensitive: f.DelaySensitive,
			Path:           append([]int(nil), f.path...),
		})
	}
	for id, load := range n.loads() {
		if load != 0 {
			e := n.g.EdgeAt(id)
			snap.Loads = append(snap.Loads, LinkLoad{A: e.From, B: e.To, Load: load})
		}
	}
	sort.Slice(snap.Loads, func(i, j int) bool {
		if snap.Loads[i].A != snap.Loads[j].A {
			return snap.Loads[i].A < snap.Loads[j].A
		}
		return snap.Loads[i].B < snap.Loads[j].B
	})
	return snap
}

// Restore rebuilds the flow table from a snapshot. The network must be
// empty (freshly constructed over the same topology graph); every path
// must be a walk over existing links with the flow's endpoints at its
// ends. When the snapshot carries link loads they are installed verbatim
// (preserving the live network's accumulated floating-point state), except
// that a negative or NaN load is refused: the route searches' lower bound
// rests on load ≥ 0 (lowerBound). A link a path crosses that has no entry
// holds load 0, which Snapshot leaves out — a zero-rate flow's links, say.
// Without any entries, loads are recomputed from the restored paths. The
// cached congestion readings are dropped; the next HotSwitches rescans
// every node.
func (n *Network) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("flow: restore from nil snapshot")
	}
	if len(n.flows) != 0 {
		return fmt.Errorf("flow: restore into non-empty network (%d flows)", len(n.flows))
	}
	seen := make(map[int]bool, len(snap.Flows))
	routes := make([][]int, len(snap.Flows))
	for i, fs := range snap.Flows {
		if seen[fs.ID] {
			return fmt.Errorf("flow: snapshot has duplicate flow id %d", fs.ID)
		}
		seen[fs.ID] = true
		if fs.ID >= snap.NextID {
			return fmt.Errorf("flow: snapshot flow id %d not below next_id %d", fs.ID, snap.NextID)
		}
		if !(fs.Rate > 0) { // as AddFlow and SetRate
			return fmt.Errorf("flow: snapshot flow %d has rate %v, want > 0", fs.ID, fs.Rate)
		}
		edges, err := n.pathEdges(fs)
		if err != nil {
			return err
		}
		routes[i] = edges
	}
	covered := make([]bool, len(n.loads())) // links some restored path crosses
	for i, fs := range snap.Flows {
		f := &Flow{ID: fs.ID, Src: fs.Src, Dst: fs.Dst, Rate: fs.Rate, DelaySensitive: fs.DelaySensitive}
		if len(fs.Path) > 0 {
			n.applyPath(f, append([]int(nil), fs.Path...), routes[i])
		}
		for _, id := range routes[i] {
			covered[id] = true
		}
		n.flows = append(n.flows, f)
	}
	sort.Slice(n.flows, func(i, j int) bool { return n.flows[i].ID < n.flows[j].ID })
	if len(snap.Loads) > 0 {
		load := make([]float64, len(covered))
		installed := make([]bool, len(covered))
		for _, ll := range snap.Loads {
			id := n.g.EdgeIndex(ll.A, ll.B)
			if id >= 0 && installed[id] {
				return fmt.Errorf("flow: snapshot has duplicate load entry for link %d→%d", ll.A, ll.B)
			}
			if id < 0 || !covered[id] {
				return fmt.Errorf("flow: snapshot load entry %d→%d not covered by any flow path", ll.A, ll.B)
			}
			if !(ll.Load >= 0) { // negative or NaN: the live network never holds one (settle)
				return fmt.Errorf("flow: snapshot load %v on link %d→%d is not a load (want ≥ 0)", ll.Load, ll.A, ll.B)
			}
			installed[id] = true
			load[id] = ll.Load
		}
		for id, l := range load {
			if l != n.load[id] {
				n.touch(id)
			}
		}
		n.load = load
	}
	n.nextID = snap.NextID
	n.readOK = false // loads were installed wholesale, unmarked: the next refresh rescans every node
	return nil
}

// pathEdges validates a snapshot flow's path and resolves it to edge IDs.
func (n *Network) pathEdges(fs FlowSnap) ([]int, error) {
	if len(fs.Path) == 0 {
		return nil, nil
	}
	if fs.Path[0] != fs.Src || fs.Path[len(fs.Path)-1] != fs.Dst {
		return nil, fmt.Errorf("flow: snapshot flow %d path endpoints %d→%d do not match flow %d→%d",
			fs.ID, fs.Path[0], fs.Path[len(fs.Path)-1], fs.Src, fs.Dst)
	}
	edges := make([]int, 0, len(fs.Path)-1)
	for i := 1; i < len(fs.Path); i++ {
		a, b := fs.Path[i-1], fs.Path[i]
		if a < 0 || a >= n.g.NumNodes() || b < 0 || b >= n.g.NumNodes() {
			return nil, fmt.Errorf("flow: snapshot flow %d path node out of range (%d→%d)", fs.ID, a, b)
		}
		id := n.g.EdgeIndex(a, b)
		if id < 0 {
			return nil, fmt.Errorf("flow: snapshot flow %d path uses missing link %d→%d", fs.ID, a, b)
		}
		edges = append(edges, id)
	}
	return edges, nil
}
