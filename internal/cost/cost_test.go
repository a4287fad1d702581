package cost

import (
	"errors"
	"math"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

func testCluster(t *testing.T) *dcn.Cluster {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testModel(t *testing.T, c *dcn.Cluster) *Model {
	t.Helper()
	m, err := New(c, PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	p := PaperParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
	p.Cr = -1
	if err := p.Validate(); err == nil {
		t.Error("negative Cr accepted")
	}
	p = PaperParams()
	p.RefSize = 0
	if err := p.Validate(); err == nil {
		t.Error("zero RefSize accepted")
	}
}

func TestSameRackTransmissionIsZero(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	r := c.Racks[0]
	got, err := m.TransmissionCost(r, r, 10)
	if err != nil || got != 0 {
		t.Fatalf("same-rack transmission = %v, %v", got, err)
	}
}

func TestTransmissionCostSamePod(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	// Racks 0 and 1 share pod 0: path ToR-agg-ToR, two edge links of
	// capacity 1 and full bandwidth 1. T(e) = size/1, P(e) = 1.
	got, err := m.TransmissionCost(c.Racks[0], c.Racks[1], 10)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (10.0/1 + 1.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("transmission = %v, want %v", got, want)
	}
}

func TestTransmissionCostScalesWithSize(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	small, err := m.TransmissionCost(c.Racks[0], c.Racks[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.TransmissionCost(c.Racks[0], c.Racks[1], 20)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("bigger VM should cost more: %v vs %v", small, big)
	}
}

func TestTransmissionSymmetric(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	for _, pair := range [][2]int{{0, 1}, {0, 3}, {2, 7}} {
		a, b := c.Racks[pair[0]], c.Racks[pair[1]]
		ab, err := m.TransmissionCost(a, b, 10)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := m.TransmissionCost(b, a, 10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ab-ba) > 1e-9 {
			t.Fatalf("asymmetric transmission %d<->%d: %v vs %v", pair[0], pair[1], ab, ba)
		}
	}
}

func TestBandwidthFloorBlocksPath(t *testing.T) {
	c := testCluster(t)
	p := PaperParams()
	p.BandwidthFloor = 0.5
	m, err := New(c, p)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the bandwidth on every link of rack 0's ToR.
	nodeID := c.Racks[0].NodeID
	for _, e := range c.Graph.Edges(nodeID) {
		c.Graph.SetBandwidth(nodeID, e.To, 0.1)
	}
	m.Refresh()
	if _, err := m.TransmissionCost(c.Racks[0], c.Racks[1], 10); !errors.Is(err, ErrBandwidthBelowFloor) {
		t.Fatalf("want ErrBandwidthBelowFloor, got %v", err)
	}
}

func TestDependencyCostSignedByProximity(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	// VM a in rack 0; its dependent peer in rack 3 (other pod).
	a, err := c.AddVM(c.Racks[0].Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddVM(c.Racks[3].Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Deps.AddDependency(a.ID, b.ID)
	// Moving a from rack 0 to rack 2 (same pod as rack 3): closer to peer,
	// so the dependency term must be negative.
	closer := m.DependencyCost(a, c.Racks[0], c.Racks[2])
	if closer >= 0 {
		t.Fatalf("moving toward peer should be negative, got %v", closer)
	}
	// Moving a within the same rack costs nothing.
	if m.DependencyCost(a, c.Racks[0], c.Racks[0]) != 0 {
		t.Fatal("same-rack dependency cost should be 0")
	}
}

func TestDependencyCostNoPeers(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	a, err := c.AddVM(c.Racks[0].Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.DependencyCost(a, c.Racks[0], c.Racks[5]) != 0 {
		t.Fatal("VM with no dependencies should have zero dependency cost")
	}
}

func TestMigrationCostComposition(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	vm, err := c.AddVM(c.Racks[0].Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := c.Racks[1].Hosts[0]
	got, err := m.Migration(vm, dst)
	if err != nil {
		t.Fatal(err)
	}
	trans, err := m.TransmissionCost(c.Racks[0], c.Racks[1], vm.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	want := PaperParams().Cr + trans // no dependencies
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Migration = %v, want %v", got, want)
	}
}

func TestMigrationSameHostFree(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	vm, err := c.AddVM(c.Racks[0].Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Migration(vm, vm.Host())
	if err != nil || got != 0 {
		t.Fatalf("same-host migration = %v, %v", got, err)
	}
}

func TestMigrationUnplacedVM(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	vm := &dcn.VM{ID: 999, Capacity: 5}
	if _, err := m.Migration(vm, c.Racks[0].Hosts[0]); err == nil {
		t.Fatal("unplaced VM should error")
	}
}

func TestMigrationCrossPodCostsMore(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	vm, err := c.AddVM(c.Racks[0].Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	samePod, err := m.Migration(vm, c.Racks[1].Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	crossPod, err := m.Migration(vm, c.Racks[7].Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	if crossPod <= samePod {
		t.Fatalf("cross-pod %v should exceed same-pod %v", crossPod, samePod)
	}
}

func TestRackPairCostMatrix(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	mat := m.RackCostMatrix()
	n := len(c.Racks)
	if len(mat) != n {
		t.Fatalf("matrix size %d", len(mat))
	}
	for i := 0; i < n; i++ {
		if mat[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
		for j := 0; j < n; j++ {
			if math.Abs(mat[i][j]-mat[j][i]) > 1e-9 {
				t.Fatalf("matrix asymmetric at %d,%d", i, j)
			}
			if i != j && mat[i][j] < PaperParams().Cr {
				t.Fatalf("off-diagonal below Cr at %d,%d: %v", i, j, mat[i][j])
			}
		}
	}
}

func TestRefreshPicksUpBandwidthChanges(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	before, err := m.TransmissionCost(c.Racks[0], c.Racks[1], 10)
	if err != nil {
		t.Fatal(err)
	}
	// Halve bandwidth everywhere: transmission time doubles on each edge.
	for _, id := range append(c.Graph.Racks(), c.Graph.Switches()...) {
		for _, e := range c.Graph.Edges(id) {
			c.Graph.SetBandwidth(id, e.To, e.Capacity/2)
		}
	}
	m.Refresh()
	after, err := m.TransmissionCost(c.Racks[0], c.Racks[1], 10)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("cost should rise after bandwidth halves: %v -> %v", before, after)
	}
}

// TestDependencyCostBitStable: Eqn. (1)'s dependency term is a float sum
// over the racks of a VM's peers, and with link distances that are not whole
// numbers the order it adds in shows in the last bits. It follows the VM's
// peers in ascending ID order, so the same VM prices the same on every call
// and in two clusters that differ only in the order their edges were added.
// (Over the map the graph used to be, the order — and on this fabric the
// sum — changed from call to call.)
func TestDependencyCostBitStable(t *testing.T) {
	peerRacks := []int{5, 1, 5, 4, 2, 1, 3} // racks of VMs 1..7; VM 0 sits in rack 0 and prices a move to rack 5
	build := func(backwards bool) (*Model, *dcn.Cluster) {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4, EdgeDistance: 0.1, CoreDistance: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
		if err != nil {
			t.Fatal(err)
		}
		for _, rack := range append([]int{0}, peerRacks...) {
			if _, err := c.AddVM(c.Racks[rack].Hosts[0], 5, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= len(peerRacks); i++ {
			peer := i
			if backwards {
				peer = len(peerRacks) + 1 - i
			}
			c.Deps.AddDependency(0, peer)
		}
		return testModel(t, c), c
	}
	m, c := build(false)
	want := m.DependencyCost(c.VM(0), c.Racks[0], c.Racks[5])
	if want == 0 {
		t.Fatal("the move prices no dependency change; the test measures nothing")
	}
	seen := map[uint64]int{}
	for _, backwards := range []bool{false, true} {
		m, c := build(backwards)
		for call := 0; call < 200; call++ {
			seen[math.Float64bits(m.DependencyCost(c.VM(0), c.Racks[0], c.Racks[5]))]++
		}
	}
	if len(seen) != 1 || seen[math.Float64bits(want)] != 400 {
		t.Fatalf("DependencyCost took %d distinct values over 400 calls (bits → calls: %v), want the one value %v", len(seen), seen, want)
	}
}
