package flow

import (
	"math/rand"
	"slices"
	"testing"

	"sheriff/internal/topology"
)

// scanMaxima is the oracle for the cached readings: node v's largest
// outgoing and incoming utilization, read off the load vector directly.
func scanMaxima(n *Network, v int) (out, in float64) {
	load := n.loads()
	for _, e := range n.g.Edges(v) {
		if e.Capacity == 0 {
			continue
		}
		if u := load[e.ID] / e.Capacity; u > out {
			out = u
		}
		if u := load[topology.ReverseEdge(e.ID)] / e.Capacity; u > in {
			in = u
		}
	}
	return out, in
}

// cacheFabrics are the three fabrics the cache properties run on.
func cacheFabrics(tb testing.TB) map[string]*topology.Graph {
	tb.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
	if err != nil {
		tb.Fatal(err)
	}
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		tb.Fatal(err)
	}
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 12, Spines: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*topology.Graph{"fat-tree": ft.Graph, "bcube": bc.Graph, "leaf-spine": ls.Graph}
}

// checkUtilizationCache plays ops, a byte string read as a sequence of
// operations and their arguments, against a fresh network over g. After
// every other operation — marks pile up over the writes in between —
// each node's SwitchUtilization and OutUtilization equal a scan of its
// links, before and after HotSwitches refreshes the cache; HotSwitches at
// the thresholds that matter (each switch's own utilization, where >= is
// decided by the last bit) lists exactly the switches a scan finds that
// hot; and after it every node's cached reading equals a scan bit for bit
// and none is left marked.
func checkUtilizationCache(t *testing.T, g *topology.Graph, ops []byte) {
	racks, switches := g.RackNodes(), g.SwitchNodes()
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	n := NewNetwork(g)
	reads := func(step, op int) {
		t.Helper()
		for v := range g.NumNodes() {
			out, in := scanMaxima(n, v)
			if got := n.OutUtilization(v); got != out {
				t.Fatalf("step %d (op %d): node %d OutUtilization %v, scan %v", step, op, v, got, out)
			}
			if got := n.SwitchUtilization(v); got != max(out, in) {
				t.Fatalf("step %d (op %d): node %d SwitchUtilization %v, scan %v", step, op, v, got, max(out, in))
			}
		}
	}
	for step := 0; len(ops) > 0; step++ {
		op := next() % 8
		var f *Flow
		if len(n.flows) > 0 {
			f = n.flows[next()%len(n.flows)]
		}
		rate := 0.02 + 0.4*float64(next())/255
		switch {
		case op <= 1 || f == nil:
			_, _ = n.AddFlow(racks[next()%len(racks)], racks[next()%len(racks)], rate, next()%4 == 0)
		case op == 2:
			n.RemoveFlow(f.ID)
		case op == 3:
			if err := n.SetRate(f, rate); err != nil {
				t.Fatal(err)
			}
		case op == 4:
			_ = n.Reroute(f, map[int]bool{switches[next()%len(switches)]: true})
		case op == 5:
			n.RerouteAroundHot(switches[next()%len(switches)], rate)
		case op == 6:
			// Into a network whose cache was filled before: Restore must
			// drop it, not keep the empty fabric's maxima.
			restored := NewNetwork(g)
			restored.HotSwitches(0)
			if err := restored.Restore(snapshotOf(t, n)); err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			if restored.readOK {
				t.Fatalf("step %d: Restore kept the cached maxima", step)
			}
			n = restored
		}
		if op%2 == 1 {
			continue
		}
		reads(step, op)
		for _, sw := range switches {
			th := n.SwitchUtilization(sw)
			var want []int
			for _, s := range switches {
				if out, in := scanMaxima(n, s); max(out, in) >= th {
					want = append(want, s)
				}
			}
			if got := n.HotSwitches(th); !slices.Equal(got, want) {
				t.Fatalf("step %d: HotSwitches(%v) = %v, scan %v", step, th, got, want)
			}
		}
		reads(step, op)
		for v := range g.NumNodes() {
			out, in := scanMaxima(n, v)
			want := nodeReading{util: out}
			if g.Node(v).Kind == topology.Switch {
				want = nodeReading{util: max(out, in), isSwitch: true}
			}
			if n.readings[v] != want {
				t.Fatalf("step %d (op %d): node %d cached %+v, scan (out %v, in %v)", step, op, v, n.readings[v], out, in)
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestUtilizationCacheMatchesScan runs seeded operation sequences through
// checkUtilizationCache on every fabric (FuzzUtilizationCache explores
// more).
func TestUtilizationCacheMatchesScan(t *testing.T) {
	for name, g := range cacheFabrics(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				ops := make([]byte, 2400)
				rand.New(rand.NewSource(seed)).Read(ops)
				checkUtilizationCache(t, g, ops)
			}
		})
	}
}

// FuzzUtilizationCache: any operation sequence leaves the cached maxima
// and HotSwitches equal to a scan (checkUtilizationCache), on every fabric.
func FuzzUtilizationCache(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 9, 200, 0, 0, 3, 1, 4, 2, 7})
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 0, 3, 4, 5, 1, 5, 0, 255, 3, 6, 0, 0, 0, 2, 0, 9, 9})
	ops := make([]byte, 256)
	rand.New(rand.NewSource(7)).Read(ops)
	f.Add(ops)
	fabrics := cacheFabrics(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, g := range fabrics {
			checkUtilizationCache(t, g, ops)
		}
	})
}

// TestQuietPeriodRescansNothing: a period that writes no load — the hot
// switch scan and every rack's uplink read — rescans no node; a write
// rescans exactly the nodes on the written links; a change of wiring
// rescans every node once.
func TestQuietPeriodRescansNothing(t *testing.T) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 12, Spines: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := ls.Graph
	n := NewNetwork(g)
	racks := g.RackNodes()
	var flows []*Flow
	for i := 0; i < 6; i++ {
		f, err := n.AddFlow(racks[i], racks[i+6], 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	period := func() {
		n.HotSwitches(0.9)
		for _, rk := range racks {
			n.OutUtilization(rk)
		}
	}
	period()
	if n.Rescans() != g.NumNodes() {
		t.Fatalf("first period rescanned %d nodes, want all %d", n.Rescans(), g.NumNodes())
	}
	for i := 0; i < 5; i++ {
		before := n.Rescans()
		period()
		if n.Rescans() != before {
			t.Fatalf("quiet period %d rescanned %d nodes, want 0", i, n.Rescans()-before)
		}
	}

	before := n.Rescans()
	if err := n.SetRate(flows[0], 0.4); err != nil {
		t.Fatal(err)
	}
	period()
	if got, want := n.Rescans()-before, len(flows[0].Path()); got != want {
		t.Fatalf("re-rating one flow rescanned %d nodes, want its path's %d", got, want)
	}

	if err := g.AddLink(racks[0], racks[1], 1, 1); err != nil {
		t.Fatal(err)
	}
	before = n.Rescans()
	period()
	if got := n.Rescans() - before; got != g.NumNodes() {
		t.Fatalf("after a new link the period rescanned %d nodes, want all %d", got, g.NumNodes())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesStaleMaxima: a cached maximum that no longer
// matches its links, with the node not marked, is reported; a marked node
// is not held to its cache.
func TestCheckInvariantsCatchesStaleMaxima(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	f, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[2][1], 0.4, false)
	if err != nil {
		t.Fatal(err)
	}
	n.HotSwitches(0.5)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	agg := f.Path()[1]
	n.readings[agg].util = 0.01
	if n.CheckInvariants() == nil {
		t.Error("stale cached maximum not reported")
	}
	n.HotSwitches(0.5) // a read does not heal a node nobody marked
	if n.CheckInvariants() == nil {
		t.Error("stale cached maximum not reported after a read")
	}
	n.markPath(f.Path()[1:2])
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("a marked node is exempt until its next read: %v", err)
	}
	if u := n.SwitchUtilization(agg); u != 0.4 {
		t.Errorf("the marked node reads %v after its rescan, want 0.4", u)
	}
}
