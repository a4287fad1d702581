package flow

import (
	"math"
	"testing"

	"sheriff/internal/topology"
)

func fatTree(t *testing.T, pods int) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// linkLoad is the offered load on the directed link a→b, which the
// network must hold.
func linkLoad(t *testing.T, n *Network, a, b int) float64 {
	t.Helper()
	id := n.g.EdgeIndex(a, b)
	if id < 0 {
		t.Fatalf("no link %d→%d", a, b)
	}
	return n.loads()[id]
}

func TestAddFlowRoutesShortest(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	f, err := n.AddFlow(src, dst, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Path()) != 3 {
		t.Fatalf("same-pod path should be 3 nodes, got %v", f.Path())
	}
	if f.Path()[0] != src || f.Path()[2] != dst {
		t.Fatalf("bad endpoints: %v", f.Path())
	}
}

func TestAddFlowValidation(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	if _, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[0][0], 1, false); err == nil {
		t.Error("src==dst accepted")
	}
	if _, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[0][1], 0, false); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestLoadAccounting(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	f, err := n.AddFlow(src, dst, 0.4, false)
	if err != nil {
		t.Fatal(err)
	}
	p := f.Path()
	if got := linkLoad(t, n, p[0], p[1]); got != 0.4 {
		t.Fatalf("link load = %v, want 0.4", got)
	}
	if got := n.OutUtilization(p[0]); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("rack uplink utilization = %v, want 0.4 (capacity 1)", got)
	}
	n.RemoveFlow(f.ID)
	if got := linkLoad(t, n, p[0], p[1]); got != 0 {
		t.Fatalf("load after removal = %v", got)
	}
	if n.Flow(f.ID) != nil {
		t.Fatal("flow still present after removal")
	}
}

func TestEqualCostSpreading(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	// Two flows between the same racks: the load-aware tie-break should
	// route them through different aggregation switches.
	f1, err := n.AddFlow(src, dst, 0.6, false)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := n.AddFlow(src, dst, 0.6, false)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Path()[1] == f2.Path()[1] {
		t.Fatalf("both flows chose agg %d; expected spreading", f1.Path()[1])
	}
}

func TestSwitchUtilizationAndHotSwitches(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	f, err := n.AddFlow(src, dst, 0.95, false)
	if err != nil {
		t.Fatal(err)
	}
	agg := f.Path()[1]
	if u := n.SwitchUtilization(agg); math.Abs(u-0.95) > 1e-12 {
		t.Fatalf("switch utilization = %v, want 0.95", u)
	}
	hot := n.HotSwitches(0.9)
	if len(hot) != 1 || hot[0] != agg {
		t.Fatalf("hot switches = %v, want [%d]", hot, agg)
	}
	if len(n.HotSwitches(0.99)) != 0 {
		t.Fatal("threshold above utilization should find nothing")
	}
}

func TestFlowsThrough(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	f, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[0][1], 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	agg := f.Path()[1]
	through := n.appendFlowsThrough(nil, agg)
	if len(through) != 1 || through[0] != f {
		t.Fatalf("appendFlowsThrough = %v", through)
	}
	if len(n.appendFlowsThrough(nil, ft.RackIDs[3][1])) != 0 {
		t.Fatal("unrelated node should carry no flows")
	}
}

func TestRerouteAvoidsSwitch(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	f, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[0][1], 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	hot := f.Path()[1]
	if moved := n.RerouteAroundHot(hot, 0.1); len(moved) != 1 || moved[0] != f {
		t.Fatalf("moved %v, want the one flow", moved)
	}
	for _, hop := range f.Path() {
		if hop == hot {
			t.Fatalf("rerouted path still crosses %d: %v", hot, f.Path())
		}
	}
	// Load must have moved with the flow.
	if linkLoad(t, n, ft.RackIDs[0][0], hot) != 0 {
		t.Fatal("old path load not released")
	}
}

// TestRerouteNoAlternativeRestores: a flow that starts at the hot node is
// routed unmasked, off its own load; with one path in the fabric it comes
// back onto that path, carrying the same load.
func TestRerouteNoAlternativeRestores(t *testing.T) {
	// Diamond with a single midpoint: no alternative exists.
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
	f, err := n.AddFlow(a, b, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	n.RerouteAroundHot(a, 0.1)
	if !equalInts(f.Path(), []int{a, s, b}) || linkLoad(t, n, a, s) != 0.5 || linkLoad(t, n, s, b) != 0.5 {
		t.Fatalf("path %v, loads %v %v: the reroute did not keep the one path's state", f.Path(), linkLoad(t, n, a, s), linkLoad(t, n, s, b))
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRerouteAroundHot(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	// Push three flows through the network; force them onto one agg by
	// adding them with tiny rates first (no spreading incentive), then
	// raising... simpler: add flows and find the hottest switch.
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
	if maxU < 0.9 {
		t.Fatalf("setup failed: max utilization %v", maxU)
	}
	moved := n.RerouteAroundHot(hot, 0.8)
	if len(moved) == 0 {
		t.Fatal("no flows moved")
	}
	if u := n.SwitchUtilization(hot); u >= maxU {
		t.Fatalf("utilization did not drop: %v -> %v", maxU, u)
	}
}

func TestRerouteAroundHotSkipsDelaySensitive(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	f, err := n.AddFlow(src, dst, 0.95, true) // delay-sensitive
	if err != nil {
		t.Fatal(err)
	}
	hot := f.Path()[1]
	moved := n.RerouteAroundHot(hot, 0.5)
	if len(moved) != 0 {
		t.Fatal("delay-sensitive flow was moved")
	}
}

func TestUpdateGraphBandwidth(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	f, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[0][1], 0.6, false)
	if err != nil {
		t.Fatal(err)
	}
	n.UpdateGraphBandwidth()
	p := f.Path()
	e, ok := ft.Graph.EdgeBetween(p[0], p[1])
	if !ok {
		t.Fatal("edge missing")
	}
	if math.Abs(e.Bandwidth-0.4) > 1e-12 {
		t.Fatalf("residual bandwidth = %v, want 0.4", e.Bandwidth)
	}
}

func TestFlowsOrderedByID(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	for i := 0; i < 5; i++ {
		if _, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[1][0], 0.1, false); err != nil {
			t.Fatal(err)
		}
	}
	flows := n.Flows()
	for i := 1; i < len(flows); i++ {
		if flows[i].ID <= flows[i-1].ID {
			t.Fatal("flows not ordered")
		}
	}
}

func TestSetRate(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	f, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[0][1], 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	p := f.Path()
	if err := n.SetRate(f, 0.7); err != nil {
		t.Fatal(err)
	}
	if f.Rate != 0.7 {
		t.Fatalf("rate = %v", f.Rate)
	}
	if got := linkLoad(t, n, p[0], p[1]); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("link load = %v, want 0.7", got)
	}
	// Lowering the rate releases load.
	if err := n.SetRate(f, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := linkLoad(t, n, p[0], p[1]); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("link load after decrease = %v", got)
	}
	// Errors: unknown flow, bad rate.
	if err := n.SetRate(&Flow{ID: 99}, 0.5); err == nil {
		t.Error("unknown flow accepted")
	}
	if err := n.SetRate(f, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if err := n.SetRate(nil, 0.5); err == nil {
		t.Error("nil flow accepted")
	}
}

// TestRemovedHandleRefused: a *Flow held across its RemoveFlow is refused
// by SetRate, also after a later AddFlow has recycled another
// removed record, and the refusal leaves every load as it was. The
// recycled record is the new flow's handle.
func TestRemovedHandleRefused(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[1][0]
	stale, err := n.AddFlow(src, dst, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	other, err := n.AddFlow(src, dst, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	n.RemoveFlow(stale.ID)
	n.RemoveFlow(other.ID)
	refused := func(when string) {
		t.Helper()
		if err := n.SetRate(stale, 0.5); err == nil {
			t.Fatalf("%s: SetRate accepted a removed flow's handle", when)
		}
	}
	refused("after RemoveFlow")

	kept, err := n.AddFlow(src, dst, 0.4, false)
	if err != nil {
		t.Fatal(err)
	}
	if kept != other {
		t.Fatal("AddFlow did not recycle the last removed record")
	}
	p := kept.Path()
	refused("after a recycling AddFlow")
	if got := linkLoad(t, n, p[0], p[1]); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("link load = %v after refusals, want the live flow's 0.4", got)
	}
	if err := n.SetRate(kept, 0.6); err != nil {
		t.Fatalf("the recycled record is the new flow's handle: %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := NewNetwork(ft.Graph).SetRate(kept, 0.5); err == nil {
		t.Fatal("another network accepted a flow it does not hold")
	}
}
