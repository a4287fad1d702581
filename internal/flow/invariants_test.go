package flow

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sheriff/internal/alloctest"
	"sheriff/internal/timeseries"
	"sheriff/internal/topology"
)

// TestInvariantsUnderRandomOperations drives a seeded random mix of every
// operation that touches link state — admit, withdraw, re-rate,
// FLOWREROUTE around a random switch and around the hottest, bandwidth
// write-back, snapshot → restore into a fresh network — on the three
// fabrics, and asserts after each one that every link load is the sum of
// the flows routed over it, none is negative, and every flow's edge list
// is its node path (an invariant ROADMAP's correctness needle names).
func TestInvariantsUnderRandomOperations(t *testing.T) {
	ft := fatTree(t, 4)
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 12, Spines: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*topology.Graph{"fat-tree": ft.Graph, "bcube": bc.Graph, "leaf-spine": ls.Graph} {
		g := g
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			racks, switches := g.Racks(), g.Switches()
			n := NewNetwork(g)
			check := func(op string) {
				t.Helper()
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("after %s: %v", op, err)
				}
			}
			pick := func() *Flow {
				fs := n.Flows()
				if len(fs) == 0 {
					return nil
				}
				return fs[rng.Intn(len(fs))]
			}
			for step := 0; step < 1500; step++ {
				op := rng.Intn(8)
				f := pick()
				switch {
				case op <= 1 || f == nil:
					a, b := racks[rng.Intn(len(racks))], racks[rng.Intn(len(racks))]
					want := freshCheapestPath(n, a, b)
					if added, err := n.AddFlow(a, b, 0.02+0.3*rng.Float64(), rng.Intn(4) == 0); err == nil && !equalInts(added.Path(), want) {
						t.Fatalf("AddFlow(%d,%d) routed %v; a sweep over freshly priced links gives %v", a, b, added.Path(), want)
					}
					check("AddFlow")
				case op == 2:
					n.RemoveFlow(f.ID)
					check("RemoveFlow")
				case op == 3:
					if err := n.SetRate(f, 0.02+0.3*rng.Float64()); err != nil {
						t.Fatal(err)
					}
					check("SetRate")
				case op == 4:
					// FLOWREROUTE around a switch drawn at random, with a
					// target no pass reaches: every movable flow through
					// it is tried.
					sw := switches[rng.Intn(len(switches))]
					for _, f := range n.RerouteAroundHot(sw, 0) {
						if i := slices.Index(f.Path(), sw); i > 0 && i < len(f.Path())-1 {
							t.Fatalf("flow %d moved around %d onto %v", f.ID, sw, f.Path())
						}
					}
					check("RerouteAroundHot at random")
				case op == 5:
					hot, maxU := switches[0], -1.0
					for _, sw := range switches {
						if u := n.SwitchUtilization(sw); u > maxU {
							hot, maxU = sw, u
						}
					}
					// The hottest switch, then — the runtime's sequence — one
					// pass after another over every switch still that hot.
					for _, sw := range append([]int{hot}, n.HotSwitches(0.5*maxU)...) {
						for _, f := range n.RerouteAroundHot(sw, 0.5*maxU) {
							if i := slices.Index(f.Path(), sw); i > 0 && i < len(f.Path())-1 {
								t.Fatalf("flow %d moved around %d onto %v", f.ID, sw, f.Path())
							}
						}
						check("RerouteAroundHot")
					}
				case op == 6:
					n.UpdateGraphBandwidth()
					for id := 0; id < g.NumEdges(); id++ {
						e := g.EdgeAt(id)
						if e.Bandwidth < 0 || e.Bandwidth > e.Capacity || e.Bandwidth != g.EdgeAt(topology.ReverseEdge(id)).Bandwidth {
							t.Fatalf("edge %d bandwidth %v out of [0,%v] or unlike its reverse", id, e.Bandwidth, e.Capacity)
						}
					}
					check("UpdateGraphBandwidth")
				default:
					snap := snapshotOf(t, n)
					want, _ := json.Marshal(snap)
					restored := NewNetwork(g)
					if err := restored.Restore(snap); err != nil {
						t.Fatalf("Restore: %v", err)
					}
					if got, _ := json.Marshal(snapshotOf(t, restored)); string(got) != string(want) {
						t.Fatalf("snapshot does not re-encode identically after restore")
					}
					n = restored
					check("Restore")
				}
			}
		})
	}
}

// freshCheapestPath prices every link from the current loads and sweeps
// from scratch: what admission must agree with although it re-prices only
// the links whose load changed since its last query.
func freshCheapestPath(n *Network, src, dst int) []int {
	load := n.loads()
	cost := func(e topology.Edge) float64 { return routeCost(load, e) }
	return topology.DijkstraFrom(n.g, []int{src}, cost).Path(src, dst, nil)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckInvariantsCatchesCorruption makes sure the checker is not
// vacuous: each kind of damage it claims to detect is reported.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	ft := fatTree(t, 4)
	fresh := func() (*Network, *Flow) {
		n := NewNetwork(ft.Graph)
		f, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[2][1], 0.4, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return n, f
	}
	n, f := fresh()
	n.load[f.edges[0]] += 0.1
	if n.CheckInvariants() == nil {
		t.Error("drifted link load not reported")
	}
	n, f = fresh()
	n.load[topology.ReverseEdge(f.edges[0])] = -0.5
	if n.CheckInvariants() == nil {
		t.Error("negative link load not reported")
	}
	n, f = fresh()
	f.edges[1] = topology.ReverseEdge(f.edges[1])
	if n.CheckInvariants() == nil {
		t.Error("edge list that does not follow the path not reported")
	}
	n, f = fresh()
	f.edges = f.edges[:len(f.edges)-1]
	if n.CheckInvariants() == nil {
		t.Error("short edge list not reported")
	}
	n, f = fresh()
	n.recycle(f.path, f.edges)
	if n.CheckInvariants() == nil {
		t.Error("live flow's route on the free list not reported")
	}
	n, f = fresh()
	n.RemoveFlow(f.ID)
	n.free = append(n.free, n.free[0])
	if n.CheckInvariants() == nil {
		t.Error("route on the free list twice not reported")
	}
	n, f = fresh()
	n.spare = append(n.spare, f)
	if n.CheckInvariants() == nil {
		t.Error("live flow's record on the spare list not reported")
	}
	n, f = fresh()
	n.RemoveFlow(f.ID)
	n.spare = append(n.spare, n.spare[0])
	if n.CheckInvariants() == nil {
		t.Error("record on the spare list twice not reported")
	}
	n, f = fresh()
	n.RemoveFlow(f.ID)
	f.net = n
	if n.CheckInvariants() == nil {
		t.Error("spare record still marked live not reported")
	}
	n, f = fresh()
	f.net = nil
	if n.CheckInvariants() == nil {
		t.Error("live flow not marked live not reported")
	}

	// Two flows over the one route of a line: sharing storage leaves every
	// other clause true.
	g := topology.NewGraph()
	a, sw, b := g.AddNode(topology.Rack, "a", 0, 0), g.AddNode(topology.Switch, "s", 0, 1), g.AddNode(topology.Rack, "b", 0, 0)
	for _, l := range [][2]int{{a, sw}, {sw, b}} {
		if err := g.AddLink(l[0], l[1], 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	n = NewNetwork(g)
	f1, err := n.AddFlow(a, b, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := n.AddFlow(a, b, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f2.path, f2.edges = f1.path, f1.edges
	if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "shares its storage") {
		t.Errorf("two flows on one route's storage: CheckInvariants = %v", err)
	}
}

// TestRestoreRefusesALoadBelowZero: the route searches are pruned by a bound
// that holds only while every load is ≥ 0, so a snapshot with a negative
// load is refused, naming the link, and one with a NaN load is refused by
// the load column's decoder, naming the entry. A load that is merely wrong
// is taken verbatim (CheckInvariants reports it).
func TestRestoreRefusesALoadBelowZero(t *testing.T) {
	ft := fatTree(t, 4)
	src := NewNetwork(ft.Graph)
	if _, err := src.AddFlow(ft.RackIDs[0][0], ft.RackIDs[2][1], 0.4, false); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-0.4, -1e-300, math.NaN()} {
		snap := snapshotOf(t, src)
		setBits(snap.Loads.Load, 1, bad)
		n := NewNetwork(ft.Graph)
		err := n.Restore(snap)
		want := fmt.Sprintf("on link %d→%d", snap.Loads.A[1], snap.Loads.B[1])
		if math.IsNaN(bad) {
			want = "load: timeseries: bits: value 1 is NaN"
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Restore with load %v: error %v, want one naming the link (%q)", bad, err, want)
		}
	}
	snap := snapshotOf(t, src)
	loads, err := snap.Loads.Load.Floats()
	if err != nil {
		t.Fatal(err)
	}
	setBits(snap.Loads.Load, 1, loads[1]+0.25)
	n := NewNetwork(ft.Graph)
	if err := n.Restore(snap); err != nil {
		t.Fatalf("Restore with a drifted load: %v", err)
	}
	if n.CheckInvariants() == nil {
		t.Error("drifted restored load not reported")
	}
}

// TestRestoreTakesItsOwnZeroLoads: a flow whose rate is below settle's
// rounding leaves the links it crosses at load 0, which Snapshot leaves
// out. The network restored from that snapshot holds those links at 0 and
// writes the snapshot again. A rate AddFlow and SetRate would refuse is
// refused.
func TestRestoreTakesItsOwnZeroLoads(t *testing.T) {
	ft := fatTree(t, 4)
	src := NewNetwork(ft.Graph)
	if _, err := src.AddFlow(ft.RackIDs[0][0], ft.RackIDs[2][1], 0.4, false); err != nil {
		t.Fatal(err)
	}
	tiny, err := src.AddFlow(ft.RackIDs[1][0], ft.RackIDs[3][1], 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetRate(tiny, 1e-13); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, src)
	if first := snap.Flows.PathEnd[0]; len(snap.Loads.A) != first-1 {
		t.Fatalf("snapshot carries %d loads, want only the first flow's %d", len(snap.Loads.A), first-1)
	}
	n := NewNetwork(ft.Graph)
	if err := n.Restore(snap); err != nil {
		t.Fatalf("a network refuses its own snapshot: %v", err)
	}
	if again := snapshotOf(t, n); !reflect.DeepEqual(again, snap) {
		t.Fatalf("restored network writes\n%+v\nnot\n%+v", again, snap)
	}

	for _, bad := range []float64{0, -0.1} {
		snap := snapshotOf(t, src)
		setBits(snap.Flows.Rate, 1, bad)
		if err := NewNetwork(ft.Graph).Restore(snap); err == nil || !strings.Contains(err.Error(), "rate") {
			t.Errorf("Restore with rate %v: error %v, want one naming the rate", bad, err)
		}
	}
}

// TestLoadVectorFollowsGraphGrowth: edge IDs are stable, so links added
// after the network was built extend the load vector without disturbing
// existing accounting.
func TestLoadVectorFollowsGraphGrowth(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	a, b := ft.RackIDs[0][0], ft.RackIDs[3][1]
	f, err := n.AddFlow(a, b, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Graph.AddLink(a, b, 1, 1); err != nil { // a shortcut
		t.Fatal(err)
	}
	if got := linkLoad(t, n, a, b); got != 0 {
		t.Fatalf("fresh link carries load %v", got)
	}
	g, err := n.AddFlow(a, b, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Path()) != 2 || linkLoad(t, n, a, b) != 0.2 {
		t.Fatalf("new flow path %v, shortcut load %v; want the direct link", g.Path(), linkLoad(t, n, a, b))
	}
	if len(f.Path()) != 5 {
		t.Fatalf("old flow rerouted itself: %v", f.Path())
	}
	c := ft.RackIDs[1][0]
	if want := freshCheapestPath(n, a, c); want == nil {
		t.Fatal("no path to compare")
	} else if h, err := n.AddFlow(a, c, 0.1, false); err != nil || !equalInts(h.Path(), want) {
		t.Fatalf("admission after the graph grew routed %v (%v), fresh sweep %v", h.Path(), err, want)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocs is the allocation gate for the per-period link-state
// walks (CI "Allocation gate" step): hot-switch scan with hot switches
// present, re-rating a routed flow, the bandwidth
// write-back, and the FLOWREROUTE pass, which allocates nothing: its moved
// flows' new routes reuse the storage of the routes they left. A removal
// followed by an admission between the same racks allocates the new *Flow
// alone: the route reuses the removed flow's storage.
func TestSteadyStateAllocs(t *testing.T) {
	ft := fatTree(t, 4)
	n := NewNetwork(ft.Graph)
	var flows []*Flow
	for pod := 1; pod < 4; pod++ {
		for i := 0; i < 2; i++ {
			f, err := n.AddFlow(ft.RackIDs[0][0], ft.RackIDs[pod][i], 0.3, false)
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, f)
		}
	}
	if len(n.HotSwitches(0.5)) == 0 {
		t.Fatal("scenario has no hot switch; the gate would not exercise the append path")
	}
	rate := 0.3
	var sink float64
	gates := map[string]func(){
		"HotSwitches": func() { sink += float64(len(n.HotSwitches(0.5))) },
		"SetRate": func() {
			rate = 0.55 - rate
			for _, f := range flows {
				if err := n.SetRate(f, rate); err != nil {
					t.Fatal(err)
				}
			}
		},
		"UpdateGraphBandwidth": n.UpdateGraphBandwidth,
	}
	for name, fn := range gates {
		fn() // warm
		alloctest.Count(t, name, fn)
	}
	_ = sink

	// Same-pod flows can cross either aggregation switch of the pod: a pass
	// around one herds every movable flow onto the other, so alternating
	// passes repeat one cycle. A second pass around the switch just emptied
	// finds only the delay-sensitive flows, prices its vector, tries each
	// and moves none.
	n = NewNetwork(ft.Graph)
	for i := 0; i < 6; i++ {
		for _, dst := range []int{ft.RackIDs[0][1], ft.RackIDs[2][i%2]} {
			if _, err := n.AddFlow(ft.RackIDs[0][0], dst, 0.05+0.01*float64(i), i%3 == 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	moved, tried := 0, 0
	cycle := func() {
		for _, agg := range ft.AggIDs[0] {
			moved += len(n.RerouteAroundHot(agg, 0))
			tried += len(n.cands)
			if left := n.RerouteAroundHot(agg, 0); len(left) != 0 || len(n.cands) == 0 {
				t.Fatalf("second pass around %d moved %d of %d candidates, want 0 of some", agg, len(left), len(n.cands))
			}
		}
	}
	cycle() // warm
	moved, tried = 0, 0
	calls := 0
	alloctest.Count(t, "reroute", func() { cycle(); calls++ })
	if moved/calls < 8 || moved%calls != 0 || tried <= moved {
		t.Fatalf("cycle moved %d flows of %d tried over %d calls: not the steady cycle the gate needs", moved, tried, calls)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	f := n.Flows()[0]
	churn := func() {
		n.RemoveFlow(f.ID)
		var err error
		if f, err = n.AddFlow(f.Src, f.Dst, f.Rate, f.DelaySensitive); err != nil {
			t.Fatal(err)
		}
	}
	churn() // warm
	alloctest.Count(t, "churn", churn)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRouteStorageConverges: a route on the free list is kept whatever its
// room, and fresh storage has room for twice the longest route made so
// far, so a detour longer than the shortest paths a route was first made
// for still fits it. On a reroute-heavy BCube-4 run whose routes were made
// on shortest paths while it was calm, no admission or reroute makes route
// storage once the run's longest path is set, however deep the later surges
// drain the free list.
func TestRouteStorageConverges(t *testing.T) {
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	racks := bc.Graph.Racks()
	rng := rand.New(rand.NewSource(3))
	n := NewNetwork(bc.Graph)
	const calm, surge, hot = 8, 64, 0.3
	moved := 0
	period := func(live int, reroute bool) {
		for len(n.flows) > live {
			n.RemoveFlow(n.flows[rng.Intn(len(n.flows))].ID)
		}
		for len(n.flows) < live {
			a, b := racks[rng.Intn(len(racks))], racks[rng.Intn(len(racks))]
			if a == b {
				continue
			}
			if _, err := n.AddFlow(a, b, 0.05+0.3*rng.Float64(), rng.Intn(5) == 0); err != nil {
				t.Fatal(err)
			}
		}
		if reroute {
			for _, sw := range n.HotSwitches(hot) {
				moved += len(n.RerouteAroundHot(sw, hot))
			}
		}
	}
	if _, err := n.AddFlow(racks[0], racks[5], 0.1, false); err != nil { // two digits apart: 5 nodes
		t.Fatal(err)
	}
	if n.longest != 5 {
		t.Fatalf("the first route has %d nodes, want BCube-4's longest shortest path, 5", n.longest)
	}
	period(surge+1, false) // a calm ramp, every route on a shortest path, to one past the surges: a reroute holds its new route beside the old
	for i := 0; i < 64; i++ {
		n.RemoveFlow(n.flows[rng.Intn(len(n.flows))].ID) // churn below the mark
		period(calm, true)
	}
	// The route arrays the network holds, live and free, by their first
	// element: an array made during the surges shows as a new one. before
	// holds pointers to the arrays it names, so none of their addresses is
	// reused.
	storage := func() map[*int]bool {
		held := make(map[*int]bool)
		add := func(s []int) {
			if cap(s) > 0 {
				held[&s[:1][0]] = true
			}
		}
		for _, f := range n.flows {
			add(f.path)
			add(f.edges)
		}
		for _, b := range n.free {
			add(b.path)
			add(b.edges)
		}
		return held
	}
	longest, before := n.longest, storage()
	moved = 0
	alloctest.Count(t, "surges", func() {
		for i := 0; i < 32; i++ {
			for live := calm; live <= surge; live += 8 {
				period(live, true)
			}
		}
	})
	made := 0
	for p := range storage() {
		if !before[p] {
			made++
		}
	}
	t.Logf("longest path %d nodes, %d route arrays; the surges moved %d flows and made %d arrays", longest, len(before), moved, made)
	if moved == 0 {
		t.Fatal("the surges rerouted no flow")
	}
	if n.longest != longest {
		t.Fatalf("the longest path grew from %d to %d nodes during the surges; churn longer before them", longest, n.longest)
	}
	if made != 0 {
		t.Errorf("the surges made %d route arrays after the longest path was set, want 0", made)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// snapshotOf is Network.Snapshot for a network the test knows is finite.
func snapshotOf(tb testing.TB, n *Network) *Snapshot {
	tb.Helper()
	s, err := n.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// setBits overwrites entry i of a packed column with v's bits, whatever
// v is: Pack would refuse a NaN, and a test needs a file that holds one.
func setBits(b timeseries.Bits, i int, v float64) {
	binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
}

// TestRestoreRefusesUnequalColumns: every column of the flow table but
// the flat path column holds one entry per flow, and every column of the
// load table one per link; the path ends rise through the path column and
// end at its end. A column that is short or long, and path ends that
// decrease or run past the column, are refused by name, before anything is
// installed — a path end of 2⁴⁰ before anything is allocated for it.
func TestRestoreRefusesUnequalColumns(t *testing.T) {
	ft := fatTree(t, 4)
	src := NewNetwork(ft.Graph)
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		if _, err := src.AddFlow(ft.RackIDs[pair[0]][0], ft.RackIDs[pair[1]][1], 0.4, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, want string
		cut        func(*Snapshot)
	}{
		{"short srcs", "flow columns of unequal length", func(s *Snapshot) { s.Flows.Src = s.Flows.Src[:1] }},
		{"long path ends", "flow columns of unequal length", func(s *Snapshot) { s.Flows.PathEnd = append(s.Flows.PathEnd, len(s.Flows.Path)) }},
		{"path ends decrease", "path end", func(s *Snapshot) { s.Flows.PathEnd[0], s.Flows.PathEnd[1] = s.Flows.PathEnd[1], s.Flows.PathEnd[0] }},
		{"path end past the column", "path end 1099511627776 of flow 1", func(s *Snapshot) { s.Flows.PathEnd[1] = 1 << 40 }},
		{"long path column", "path column runs 1 past", func(s *Snapshot) { s.Flows.Path = append(s.Flows.Path, 0) }},
		{"short delay_sensitive", "flow columns of unequal length", func(s *Snapshot) { s.Flows.DelaySensitive = nil }},
		{"short rates", "flow columns of unequal length", func(s *Snapshot) { s.Flows.Rate = s.Flows.Rate[:8] }},
		{"short b", "load columns of unequal length", func(s *Snapshot) { s.Loads.B = s.Loads.B[1:] }},
		{"long loads", "load columns of unequal length", func(s *Snapshot) { s.Loads.Load = append(s.Loads.Load, s.Loads.Load[:8]...) }},
	} {
		snap := snapshotOf(t, src)
		tc.cut(snap)
		n := NewNetwork(ft.Graph)
		if err := n.Restore(snap); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
		if len(n.Flows()) != 0 {
			t.Errorf("%s: refused restore left %d flows behind", tc.name, len(n.Flows()))
		}
	}
}
