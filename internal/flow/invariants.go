package flow

import (
	"fmt"
	"math"

	"sheriff/internal/topology"
)

// CheckInvariants verifies the traffic plane's bookkeeping against a
// recomputation from the flow table:
//
//   - every flow's edge list is its node path, hop for hop;
//   - every link's load equals the sum of the rates of the flows routed
//     over it, to within 1e-9 (the live value is accumulated incrementally,
//     so it differs from the recomputed sum by rounding);
//   - no link load is negative;
//   - every link whose load was written since admission's weight vector was
//     priced is listed for re-pricing (exactly once), and every other link's
//     weight was priced from the load it carries now — the re-priced vector
//     is the vector a fresh fill would give;
//   - the count of nodes marked for a rescan is the number of marks, and
//     every unmarked node's cached congestion reading equals a scan of its
//     links bit for bit;
//   - the flow table is strictly ascending by ID, below the next ID.
//
// It is O(flows × path length + links) and allocates; meant for tests and
// debugging, not for the per-period path.
func (n *Network) CheckInvariants() error {
	load := n.loads()
	want := make([]float64, len(load))
	for i, f := range n.flows {
		if f.ID >= n.nextID || (i > 0 && n.flows[i-1].ID >= f.ID) {
			return fmt.Errorf("flow: table out of order at flow %d (next id %d)", f.ID, n.nextID)
		}
		if len(f.path) == 0 && len(f.edges) == 0 {
			continue
		}
		if len(f.edges) != len(f.path)-1 {
			return fmt.Errorf("flow: flow %d has %d edges for a %d-node path", f.ID, len(f.edges), len(f.path))
		}
		if f.path[0] != f.Src || f.path[len(f.path)-1] != f.Dst {
			return fmt.Errorf("flow: flow %d path %v does not join %d→%d", f.ID, f.path, f.Src, f.Dst)
		}
		for k, id := range f.edges {
			if id < 0 || id >= len(load) {
				return fmt.Errorf("flow: flow %d edge %d out of range", f.ID, id)
			}
			if e := n.g.EdgeAt(id); e.From != f.path[k] || e.To != f.path[k+1] {
				return fmt.Errorf("flow: flow %d edge %d is %d→%d, path hop is %d→%d",
					f.ID, id, e.From, e.To, f.path[k], f.path[k+1])
			}
			want[id] += f.Rate
		}
	}
	for id, got := range load {
		if got < 0 {
			return fmt.Errorf("flow: negative load %v on edge %d", got, id)
		}
		if math.Abs(got-want[id]) > 1e-9 {
			e := n.g.EdgeAt(id)
			return fmt.Errorf("flow: load on %d→%d is %v, routed flows sum to %v", e.From, e.To, got, want[id])
		}
	}
	if n.priced != nil && n.pricedVer == n.g.StructVersion() {
		listed := 0
		for id, got := range load {
			if n.isStale[id] {
				listed++
			} else if got != n.priced[id] {
				e := n.g.EdgeAt(id)
				return fmt.Errorf("flow: load on %d→%d moved from %v to %v without being listed for re-pricing", e.From, e.To, n.priced[id], got)
			}
		}
		if listed != len(n.stale) {
			return fmt.Errorf("flow: %d links marked for re-pricing, %d listed", listed, len(n.stale))
		}
	}
	if n.readOK && n.readVer == n.g.StructVersion() {
		listed := 0
		for v, r := range n.readings {
			if r.dirty {
				listed++
			} else if sw := n.g.Node(v).Kind == topology.Switch; r.isSwitch != sw || r.util != n.read(v, sw) {
				return fmt.Errorf("flow: node %d's cached reading %v (switch %v) is not its links' %v, and it is not marked for a rescan",
					v, r.util, r.isSwitch, n.read(v, sw))
			}
		}
		if listed != n.ndirty {
			return fmt.Errorf("flow: %d nodes marked for a rescan, %d counted", listed, n.ndirty)
		}
	}
	return nil
}
