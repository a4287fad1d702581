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

	"sheriff/internal/timeseries"
	"sheriff/internal/topology"
)

// TestInvariantsUnderRandomOperations drives a seeded random mix of every
// operation that touches link state — admit, withdraw, re-rate, reroute
// around chosen switches, FLOWREROUTE around the hottest switch, bandwidth
// write-back, snapshot → restore into a fresh network — on the three
// fabrics, and asserts after each one that every link load is the sum of
// the flows routed over it, none is negative, and every flow's edge list
// is its node path (ROADMAP item 4).
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
					avoid := map[int]bool{switches[rng.Intn(len(switches))]: true}
					before := append([]int(nil), f.Path()...)
					if err := n.Reroute(f, avoid); err != nil && !equalInts(before, f.Path()) {
						t.Fatalf("failed Reroute changed the path: %v -> %v", before, f.Path())
					}
					check("Reroute")
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
	return topology.DijkstraFrom(n.g, []int{src}, cost).Path(src, dst)
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
	if len(snap.Loads.A) != len(snap.Flows.Path[0])-1 {
		t.Fatalf("snapshot carries %d loads, want only the first flow's %d", len(snap.Loads.A), len(snap.Flows.Path[0])-1)
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
	if got := n.LinkLoad(a, b); got != 0 {
		t.Fatalf("fresh link carries load %v", got)
	}
	g, err := n.AddFlow(a, b, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Path()) != 2 || n.LinkLoad(a, b) != 0.2 {
		t.Fatalf("new flow path %v, shortcut load %v; want the direct link", g.Path(), n.LinkLoad(a, b))
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
// present, per-edge utilization, re-rating a routed flow, the bandwidth
// write-back, and the FLOWREROUTE pass, which may allocate the path and
// edge slices its moved flows keep and nothing else.
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
	edges := ft.Graph.Edges(ft.RackIDs[0][0])
	rate := 0.3
	var sink float64
	gates := map[string]func(){
		"HotSwitches": func() { sink += float64(len(n.HotSwitches(0.5))) },
		"EdgeUtilization": func() {
			for _, e := range edges {
				sink += n.EdgeUtilization(e)
			}
		},
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
		if got := testing.AllocsPerRun(20, fn); got != 0 {
			t.Errorf("%s allocates %v times per call in steady state, want 0", name, got)
		}
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
	const runs = 20
	got := testing.AllocsPerRun(runs, cycle)
	perCycle := moved / (runs + 1) // AllocsPerRun warms up with one more call
	if perCycle < 8 || moved%(runs+1) != 0 || tried <= moved {
		t.Fatalf("cycle moved %d flows of %d tried over %d calls: not the steady cycle the gate needs", moved, tried, runs+1)
	}
	if want := float64(2 * perCycle); got != want {
		t.Errorf("a cycle of passes moving %d flows allocates %v times, want %v: the moved flows' path and edge slices and nothing else", perCycle, got, want)
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

// TestRestoreRefusesUnequalColumns: every column of the flow table holds
// one entry per flow, and every column of the load table one per link. A
// column that is short or long is refused by name, before anything is
// installed.
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
		{"long paths", "flow columns of unequal length", func(s *Snapshot) { s.Flows.Path = append(s.Flows.Path, nil) }},
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
