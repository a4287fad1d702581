package flow

import (
	"slices"
	"testing"

	"sheriff/internal/topology"
)

// checkLoadConsistency asserts the network's invariants — above all that
// the incremental load accounting equals a recomputation from every flow's
// current path, which the cached-sweep reroute must preserve.
func checkLoadConsistency(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRerouteAroundHotSharedSource drives many same-source flows through
// one hot switch so the pass exercises the shared-sweep fast path (one
// Dijkstra per distinct source, invalidated only after a move).
func TestRerouteAroundHotSharedSource(t *testing.T) {
	ft := fatTree(t, 8)
	n := NewNetwork(ft.Graph)
	src := ft.RackIDs[0][0]
	// Several flows from one rack to different pods; they share the first
	// hop and pile onto the pod's aggregation layer.
	for pod := 1; pod <= 4; pod++ {
		for i := 0; i < 2; i++ {
			if _, err := n.AddFlow(src, ft.RackIDs[pod][i], 0.2, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	var hot int
	maxU := 0.0
	for _, sw := range ft.Switches() {
		if u := n.SwitchUtilization(sw); u > maxU {
			maxU, hot = u, sw
		}
	}
	moved := n.RerouteAroundHot(hot, 0.1) // low target: move everything movable
	if len(moved) == 0 {
		t.Fatal("no flows moved")
	}
	for _, f := range moved {
		for _, hop := range f.Path() {
			if hop == hot {
				t.Fatalf("moved flow %d still crosses hot switch %d: %v", f.ID, hot, f.Path())
			}
		}
		if f.Path()[0] != f.Src || f.Path()[len(f.Path())-1] != f.Dst {
			t.Fatalf("moved flow %d has bad endpoints: %v", f.ID, f.Path())
		}
	}
	checkLoadConsistency(t, n)
}

// TestRerouteAroundHotNoAlternative: when the hot switch is the only way
// through, the cached-sweep pass must leave the flow (and its load)
// untouched.
func TestRerouteAroundHotNoAlternative(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Rack, "a", 0, 0)
	s := g.AddNode(topology.Switch, "s", 0, 1)
	b := g.AddNode(topology.Rack, "b", 0, 0)
	if err := g.AddLink(a, s, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(s, b, 1, 1); err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(g)
	f, err := n.AddFlow(a, b, 0.95, false)
	if err != nil {
		t.Fatal(err)
	}
	if moved := n.RerouteAroundHot(s, 0.5); len(moved) != 0 {
		t.Fatalf("moved %v despite no alternative", moved)
	}
	if len(f.Path()) != 3 || linkLoad(t, n, a, s) != 0.95 {
		t.Fatal("failed pass disturbed flow state")
	}
	checkLoadConsistency(t, n)
}

// TestCheapestPathReusesSweep: routing queries must write into one
// network-owned table instead of allocating a fresh MultiSource per flow.
func TestCheapestPathReusesSweep(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	if _, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[1][0], 0.1, false); err != nil {
		t.Fatal(err)
	}
	first := n.sweep
	if first == nil {
		t.Fatal("no sweep retained after AddFlow")
	}
	for i := 0; i < 5; i++ {
		if _, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[2][1], 0.1, false); err != nil {
			t.Fatal(err)
		}
	}
	if n.sweep != first {
		t.Fatal("cheapestPath reallocated its sweep table")
	}
	checkLoadConsistency(t, n)
}

// TestRerouteAroundHotEquivalentAvoidance cross-checks the cached pass
// against an independent oracle, Floyd–Warshall with every edge into the
// hot switch priced Inf (endpoints exempt): every flow it moves must leave
// the hot switch off its path and be as short as the oracle's path.
func TestRerouteAroundHotEquivalentAvoidance(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	for i := 0; i < 3; i++ {
		if _, err := n.AddFlow(src, dst, 0.5, false); err != nil {
			t.Fatal(err)
		}
	}
	var hot int
	maxU := 0.0
	for _, sw := range ft.Switches() {
		if u := n.SwitchUtilization(sw); u > maxU {
			maxU, hot = u, sw
		}
	}
	moved := n.RerouteAroundHot(hot, 0.8)
	if len(moved) == 0 {
		t.Fatal("no flow moved")
	}
	for _, f := range moved {
		oracle := topology.FloydWarshall(ft.Graph, func(e topology.Edge) float64 {
			if e.To == hot && e.To != f.Src && e.To != f.Dst {
				return topology.Inf
			}
			return e.Distance
		})
		want := oracle.Dist(f.Src, f.Dst)
		if want == topology.Inf {
			t.Fatalf("cached pass moved flow %d but no avoiding path exists", f.ID)
		}
		p := f.Path()
		if slices.Contains(p[1:len(p)-1], hot) {
			t.Fatalf("moved flow %d still crosses hot switch %d: %v", f.ID, hot, p)
		}
		got := 0.0
		for i := 1; i < len(p); i++ {
			e, _ := ft.Graph.EdgeBetween(p[i-1], p[i])
			got += e.Distance
		}
		if got != want {
			t.Fatalf("moved flow %d path %v has distance %v, oracle %v", f.ID, p, got, want)
		}
	}
	checkLoadConsistency(t, n)
}
