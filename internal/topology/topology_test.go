package topology

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestAddNodeAndLink(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	b := g.AddNode(Switch, "b", -1, 1)
	if err := g.AddLink(a, b, 10, 2); err != nil {
		t.Fatal(err)
	}
	e, ok := g.EdgeBetween(a, b)
	if !ok || e.Capacity != 10 || e.Distance != 2 || e.Bandwidth != 10 {
		t.Fatalf("edge = %+v, ok=%v", e, ok)
	}
	// Reverse direction must exist too.
	if _, ok := g.EdgeBetween(b, a); !ok {
		t.Fatal("reverse edge missing")
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	if err := g.AddLink(a, 5, 1, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := g.AddLink(a, a, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestSetBandwidth(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	b := g.AddNode(Rack, "b", 0, 0)
	if err := g.AddLink(a, b, 10, 1); err != nil {
		t.Fatal(err)
	}
	if !g.SetBandwidth(a, b, 3) {
		t.Fatal("SetBandwidth failed")
	}
	e, _ := g.EdgeBetween(a, b)
	er, _ := g.EdgeBetween(b, a)
	if e.Bandwidth != 3 || er.Bandwidth != 3 {
		t.Fatalf("bandwidth not updated both ways: %v / %v", e.Bandwidth, er.Bandwidth)
	}
	if g.SetBandwidth(a, 99, 1) {
		t.Error("SetBandwidth on missing link should return false")
	}
}

func TestRacksAndSwitches(t *testing.T) {
	g := NewGraph()
	g.AddNode(Rack, "r0", 0, 0)
	g.AddNode(Switch, "s0", -1, 1)
	g.AddNode(Rack, "r1", 0, 0)
	if len(g.Racks()) != 2 || len(g.Switches()) != 1 {
		t.Fatalf("racks=%v switches=%v", g.Racks(), g.Switches())
	}
}

func TestNodeKindString(t *testing.T) {
	if Rack.String() != "rack" || Switch.String() != "switch" {
		t.Fatal("kind strings wrong")
	}
	if NodeKind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestFatTreeValidation(t *testing.T) {
	if _, err := NewFatTree(FatTreeConfig{Pods: 3}); err == nil {
		t.Error("odd pods accepted")
	}
	if _, err := NewFatTree(FatTreeConfig{Pods: 0}); err == nil {
		t.Error("zero pods accepted")
	}
}

func TestFatTreeCounts(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		ft, err := NewFatTree(FatTreeConfig{Pods: k})
		if err != nil {
			t.Fatal(err)
		}
		half := k / 2
		wantRacks := k * half
		if got := len(ft.Racks()); got != wantRacks {
			t.Errorf("k=%d racks = %d, want %d", k, got, wantRacks)
		}
		if ft.NumRacks() != wantRacks {
			t.Errorf("NumRacks = %d, want %d", ft.NumRacks(), wantRacks)
		}
		wantSwitches := k*half + half*half // agg + core
		if got := len(ft.Switches()); got != wantSwitches {
			t.Errorf("k=%d switches = %d, want %d", k, got, wantSwitches)
		}
	}
}

func TestFatTreeWiring(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every ToR connects to every agg in its pod with edge capacity 1.
	for pod := range ft.RackIDs {
		for _, tor := range ft.RackIDs[pod] {
			for _, agg := range ft.AggIDs[pod] {
				e, ok := ft.EdgeBetween(tor, agg)
				if !ok {
					t.Fatalf("missing ToR-agg link pod %d", pod)
				}
				if e.Capacity != 1 {
					t.Fatalf("edge capacity = %v, want 1", e.Capacity)
				}
			}
		}
	}
	// Agg j connects to core group j with capacity 10.
	for pod := range ft.AggIDs {
		for j, agg := range ft.AggIDs[pod] {
			for _, core := range ft.CoreIDs[j] {
				e, ok := ft.EdgeBetween(agg, core)
				if !ok {
					t.Fatalf("missing agg-core link pod %d group %d", pod, j)
				}
				if e.Capacity != 10 {
					t.Fatalf("core capacity = %v, want 10", e.Capacity)
				}
			}
		}
	}
}

func TestFatTreeConnectivity(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 8})
	if err != nil {
		t.Fatal(err)
	}
	ap := FloydWarshall(ft.Graph, DistanceCost)
	racks := ft.Racks()
	for _, a := range racks {
		for _, b := range racks {
			if math.IsInf(ap.Dist(a, b), 1) {
				t.Fatalf("racks %d and %d disconnected", a, b)
			}
		}
	}
	// Same-pod racks are 2 hops (distance 2); cross-pod are 2+2+2+... via
	// core: tor-agg(1) agg-core(2) core-agg(2) agg-tor(1) = 6.
	samePod := ap.Dist(ft.RackIDs[0][0], ft.RackIDs[0][1])
	crossPod := ap.Dist(ft.RackIDs[0][0], ft.RackIDs[1][0])
	if samePod != 2 {
		t.Errorf("same-pod distance = %v, want 2", samePod)
	}
	if crossPod != 6 {
		t.Errorf("cross-pod distance = %v, want 6", crossPod)
	}
}

func TestBCubeValidation(t *testing.T) {
	if _, err := NewBCube(BCubeConfig{SwitchesPerLevel: 1}); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestBCubeCounts(t *testing.T) {
	for _, n := range []int{4, 8} {
		b, err := NewBCube(BCubeConfig{SwitchesPerLevel: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Racks()) != n*n || b.NumRacks() != n*n {
			t.Errorf("n=%d racks = %d, want %d", n, len(b.Racks()), n*n)
		}
		if len(b.Switches()) != 2*n {
			t.Errorf("n=%d switches = %d, want %d", n, len(b.Switches()), 2*n)
		}
	}
}

func TestBCubeConnectivity(t *testing.T) {
	b, err := NewBCube(BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ap := FloydWarshall(b.Graph, DistanceCost)
	// Same group (share level-0 switch): distance 2 (1+1).
	if d := ap.Dist(b.RackIDs[0][0], b.RackIDs[0][1]); d != 2 {
		t.Errorf("same-group distance = %v, want 2", d)
	}
	// Same level-1 switch: distance 4 (2+2).
	if d := ap.Dist(b.RackIDs[0][0], b.RackIDs[1][0]); d != 4 {
		t.Errorf("same-l1 distance = %v, want 4", d)
	}
	// Neither shared: must relay through an intermediate server, e.g.
	// (0,0)→l0→(0,1)→l1→(1,1): 1+1+2+2 = 6.
	if d := ap.Dist(b.RackIDs[0][0], b.RackIDs[1][1]); d != 6 {
		t.Errorf("cross distance = %v, want 6", d)
	}
}

func TestBCubeOneHopRegion(t *testing.T) {
	n := 4
	b, err := NewBCube(BCubeConfig{SwitchesPerLevel: n})
	if err != nil {
		t.Fatal(err)
	}
	// One switch hop from server (0,0): the n−1 peers of level-0 switch 0
	// plus the n−1 peers of level-1 switch 0.
	nb := b.RackNeighbors(b.RackIDs[0][0], 1)
	if len(nb) != 2*(n-1) {
		t.Fatalf("one-hop region = %d nodes, want %d", len(nb), 2*(n-1))
	}
}

func TestFloydWarshallSimpleChain(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	b := g.AddNode(Switch, "b", 0, 1)
	c := g.AddNode(Rack, "c", 0, 0)
	if err := g.AddLink(a, b, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(b, c, 1, 4); err != nil {
		t.Fatal(err)
	}
	ap := FloydWarshall(g, DistanceCost)
	if ap.Dist(a, c) != 7 {
		t.Fatalf("Dist(a,c) = %v, want 7", ap.Dist(a, c))
	}
	path := ap.Path(a, c)
	if len(path) != 3 || path[0] != a || path[1] != b || path[2] != c {
		t.Fatalf("Path = %v", path)
	}
	if ap.Dist(a, a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestFloydWarshallPicksShorterRoute(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	b := g.AddNode(Switch, "b", 0, 1)
	c := g.AddNode(Rack, "c", 0, 0)
	// Direct long link and an indirect short route.
	if err := g.AddLink(a, c, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(a, b, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(b, c, 1, 3); err != nil {
		t.Fatal(err)
	}
	ap := FloydWarshall(g, DistanceCost)
	if ap.Dist(a, c) != 5 {
		t.Fatalf("Dist = %v, want 5 via b", ap.Dist(a, c))
	}
}

func TestFloydWarshallDisconnected(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Rack, "a", 0, 0)
	b := g.AddNode(Rack, "b", 1, 0)
	ap := FloydWarshall(g, DistanceCost)
	if !math.IsInf(ap.Dist(a, b), 1) {
		t.Fatal("disconnected nodes should be Inf apart")
	}
	if ap.Path(a, b) != nil {
		t.Fatal("path between disconnected nodes should be nil")
	}
}

// TestRackNeighborsOrderPinned: a shim's region is listed in the order the
// breadth-first walk reaches its racks, and migrate sorts it only by rack
// index afterwards — so the walk's order, with visited nodes marked in a
// slice, is held to the map-marked walk it replaced, on every rack of each
// kind of fabric, at one and at two switch hops.
func TestRackNeighborsOrderPinned(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBCube(BCubeConfig{SwitchesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeafSpine(LeafSpineConfig{Leaves: 16, Spines: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"fat-tree-4": ft.Graph, "bcube-4": bc.Graph, "leaf-spine-16": ls.Graph} {
		for _, hops := range []int{1, 2} {
			reached := 0
			for _, rack := range g.Racks() {
				got, want := g.RackNeighbors(rack, hops), referenceRackNeighbors(g, rack, hops)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: RackNeighbors(%d, %d) = %v, the map-marked walk gives %v", name, rack, hops, got, want)
				}
				reached += len(got)
			}
			if reached == 0 {
				t.Fatalf("%s: no rack has a neighbour within %d hops; the test compares nothing", name, hops)
			}
		}
	}
}

func TestRackNeighborsOneHop(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One switch hop from a ToR reaches the other ToRs in its pod (via agg).
	tor := ft.RackIDs[0][0]
	nb := ft.RackNeighbors(tor, 1)
	want := map[int]bool{}
	for _, r := range ft.RackIDs[0] {
		if r != tor {
			want[r] = true
		}
	}
	if len(nb) != len(want) {
		t.Fatalf("one-hop neighbors = %v, want pod peers %v", nb, want)
	}
	for _, id := range nb {
		if !want[id] {
			t.Fatalf("unexpected neighbor %d", id)
		}
	}
	// Three switch hops (ToR→agg→core→agg→ToR) reach cross-pod racks.
	nb3 := ft.RackNeighbors(tor, 3)
	if len(nb3) != ft.NumRacks()-1 {
		t.Fatalf("three-hop neighbors = %d, want %d", len(nb3), ft.NumRacks()-1)
	}
}

// Property: Floyd–Warshall distances satisfy the triangle inequality.
func TestFloydTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%5+3) % 8
		if n < 3 {
			n = 3
		}
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.AddNode(Rack, "", 0, 0)
		}
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			v := float64(((s>>11)%100+100)%100) + 1
			return v
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (s+int64(i*j))%3 != 0 {
					if err := g.AddLink(i, j, 1, next()); err != nil {
						return false
					}
				}
			}
		}
		ap := FloydWarshall(g, DistanceCost)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					dij, dik, dkj := ap.Dist(i, j), ap.Dist(i, k), ap.Dist(k, j)
					if dik+dkj < dij-1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a reconstructed path's summed edge distances equal Dist.
func TestFloydPathConsistencyProperty(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 6})
	if err != nil {
		t.Fatal(err)
	}
	ap := FloydWarshall(ft.Graph, DistanceCost)
	racks := ft.Racks()
	for _, a := range racks {
		for _, b := range racks {
			p := ap.Path(a, b)
			if p == nil {
				t.Fatalf("nil path %d->%d", a, b)
			}
			sum := 0.0
			for i := 1; i < len(p); i++ {
				e, ok := ft.EdgeBetween(p[i-1], p[i])
				if !ok {
					t.Fatalf("path uses nonexistent edge %d-%d", p[i-1], p[i])
				}
				sum += e.Distance
			}
			if math.Abs(sum-ap.Dist(a, b)) > 1e-9 {
				t.Fatalf("path sum %v != dist %v for %d->%d", sum, ap.Dist(a, b), a, b)
			}
		}
	}
}

// TestEdgeIDs pins the edge-index contract the traffic plane builds on:
// link k owns IDs 2k and 2k+1, the two are each other's reverse, IDs do not
// move when the graph grows, and SetBandwidthAt reaches both the adjacency
// and an already-built CSR view.
func TestEdgeIDs(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	check := func() {
		t.Helper()
		seen := make([]bool, g.NumEdges())
		for u := 0; u < g.NumNodes(); u++ {
			for _, e := range g.Edges(u) {
				if e.ID < 0 || e.ID >= g.NumEdges() || seen[e.ID] {
					t.Fatalf("edge %d→%d has ID %d (out of range or repeated)", e.From, e.To, e.ID)
				}
				seen[e.ID] = true
				if got := g.EdgeAt(e.ID); got != e {
					t.Fatalf("EdgeAt(%d) = %+v, adjacency has %+v", e.ID, got, e)
				}
				if got := g.EdgeIndex(e.From, e.To); got != e.ID {
					t.Fatalf("EdgeIndex(%d,%d) = %d, want %d", e.From, e.To, got, e.ID)
				}
				if r := g.EdgeAt(ReverseEdge(e.ID)); r.From != e.To || r.To != e.From {
					t.Fatalf("ReverseEdge(%d) = %d→%d, want %d→%d", e.ID, r.From, r.To, e.To, e.From)
				}
			}
		}
	}
	check()
	if g.EdgeIndex(ft.RackIDs[0][0], ft.RackIDs[1][0]) != -1 || g.EdgeIndex(-1, 0) != -1 {
		t.Fatal("EdgeIndex reported a link that does not exist")
	}

	a, b := ft.RackIDs[0][0], ft.AggIDs[0][0]
	id := g.EdgeIndex(a, b)
	before := DijkstraFrom(g, []int{a}, bandwidthCost).Dist(a, b) // builds the CSR view
	if err := g.AddLink(ft.RackIDs[0][0], ft.RackIDs[1][0], 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeIndex(a, b); got != id {
		t.Fatalf("edge ID moved from %d to %d when a link was added", id, got)
	}
	check()

	ms := DijkstraFrom(g, []int{a}, bandwidthCost) // CSR rebuilt, then patched below
	g.SetBandwidthAt(ReverseEdge(id), 0.25)
	for _, e := range []Edge{g.EdgeAt(id), g.EdgeAt(ReverseEdge(id))} {
		if e.Bandwidth != 0.25 {
			t.Fatalf("edge %d bandwidth = %v after SetBandwidthAt, want 0.25", e.ID, e.Bandwidth)
		}
	}
	ms = DijkstraFromInto(g, []int{a}, bandwidthCost, ms)
	if got := ms.Dist(a, b); got == before {
		t.Fatalf("sweep after SetBandwidthAt still sees the old link cost %v", got)
	}
	if !g.SetBandwidth(a, b, 1) || g.EdgeAt(id).Bandwidth != 1 || g.SetBandwidth(a, a, 1) {
		t.Fatal("SetBandwidth by endpoints disagrees with SetBandwidthAt")
	}
}

func TestKindListsAreCopies(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	racks, switches := ft.Racks(), ft.Switches()
	racks[0], switches[0] = -7, -7
	if ft.RackNodes()[0] == -7 || ft.SwitchNodes()[0] == -7 {
		t.Fatal("Racks/Switches hand out the graph's own slice")
	}
	if len(ft.RackNodes()) != len(racks) || len(ft.SwitchNodes()) != len(switches) {
		t.Fatal("RackNodes/SwitchNodes disagree with Racks/Switches")
	}
}
