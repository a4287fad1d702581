package dcn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sheriff/internal/alloctest"
	"sheriff/internal/topology"
)

func testCluster(t testing.TB, pods int) *Cluster {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ft.Graph, Config{HostsPerRack: 4, HostCapacity: 100, ToRCapacity: 400})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{HostsPerRack: 0, HostCapacity: 1, ToRCapacity: 1},
		{HostsPerRack: 1, HostCapacity: 0, ToRCapacity: 1},
		{HostsPerRack: 1, HostCapacity: 1, ToRCapacity: 0},
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := (Config{HostsPerRack: 1, HostCapacity: 1, ToRCapacity: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewClusterStructure(t *testing.T) {
	c := testCluster(t, 4)
	// Fat-Tree(4): 8 racks.
	if len(c.Racks) != 8 {
		t.Fatalf("racks = %d, want 8", len(c.Racks))
	}
	if len(c.Hosts()) != 32 {
		t.Fatalf("hosts = %d, want 32", len(c.Hosts()))
	}
	for _, r := range c.Racks {
		if len(r.Hosts) != 4 {
			t.Fatalf("rack %d has %d hosts", r.Index, len(r.Hosts))
		}
		if got := c.RackByNode(r.NodeID); got != r {
			t.Fatal("RackByNode lookup broken")
		}
		for _, h := range r.Hosts {
			if h.Rack() != r {
				t.Fatal("host rack backlink broken")
			}
		}
	}
}

func TestNewClusterRejectsNoRacks(t *testing.T) {
	g := topology.NewGraph()
	g.AddNode(topology.Switch, "s", -1, 1)
	if _, err := NewCluster(g, Config{HostsPerRack: 1, HostCapacity: 1, ToRCapacity: 1}); err == nil {
		t.Fatal("cluster with no racks accepted")
	}
}

func TestAddVMAndAccounting(t *testing.T) {
	c := testCluster(t, 4)
	h := c.Hosts()[0]
	vm, err := c.AddVM(h, 30, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Host() != h {
		t.Fatal("VM host not set")
	}
	if h.Used() != 30 || h.Free() != 70 {
		t.Fatalf("used/free = %v/%v", h.Used(), h.Free())
	}
	if h.Utilization() != 0.3 {
		t.Fatalf("utilization = %v", h.Utilization())
	}
	if c.VM(vm.ID) != vm {
		t.Fatal("VM lookup broken")
	}
}

func TestAddVMCapacityEnforced(t *testing.T) {
	c := testCluster(t, 4)
	h := c.Hosts()[0]
	if _, err := c.AddVM(h, 150, 1, false); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("want ErrInsufficientCapacity, got %v", err)
	}
	if _, err := c.AddVM(h, 60, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM(h, 60, 1, false); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("want ErrInsufficientCapacity on second VM, got %v", err)
	}
}

func TestMove(t *testing.T) {
	c := testCluster(t, 4)
	src, dst := c.Hosts()[0], c.Hosts()[1]
	vm, err := c.AddVM(src, 40, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Move(vm, dst); err != nil {
		t.Fatal(err)
	}
	if vm.Host() != dst || src.Used() != 0 || dst.Used() != 40 {
		t.Fatal("move did not transfer VM")
	}
	// Move to itself is a no-op.
	if err := c.Move(vm, dst); err != nil {
		t.Fatal(err)
	}
}

func TestMoveFailureRestoresVM(t *testing.T) {
	c := testCluster(t, 4)
	src, dst := c.Hosts()[0], c.Hosts()[1]
	vm, err := c.AddVM(src, 40, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM(dst, 90, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Move(vm, dst); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("want capacity error, got %v", err)
	}
	if vm.Host() != src || src.Used() != 40 {
		t.Fatal("failed move did not restore VM")
	}
}

func TestDependencyConflictOnPlacement(t *testing.T) {
	c := testCluster(t, 4)
	h0, h1 := c.Hosts()[0], c.Hosts()[1]
	a, err := c.AddVM(h0, 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddVM(h1, 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Deps.AddDependency(a.ID, b.ID)
	if err := c.Move(b, h0); !errors.Is(err, ErrDependencyConflict) {
		t.Fatalf("want ErrDependencyConflict, got %v", err)
	}
	if b.Host() != h1 {
		t.Fatal("conflicting move should leave VM in place")
	}
}

func TestRemove(t *testing.T) {
	c := testCluster(t, 4)
	h := c.Hosts()[0]
	vm, err := c.AddVM(h, 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Remove(vm)
	if h.Used() != 0 || c.VM(vm.ID) != nil || vm.Host() != nil {
		t.Fatal("Remove did not clean up")
	}
}

func TestRackAggregates(t *testing.T) {
	c := testCluster(t, 4)
	r := c.Racks[0]
	if _, err := c.AddVM(r.Hosts[0], 10, 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVM(r.Hosts[1], 20, 1, false); err != nil {
		t.Fatal(err)
	}
	if r.Hosts[0].Used() != 10 || r.Hosts[1].Used() != 20 {
		t.Fatalf("hosts used %v and %v, want 10 and 20", r.Hosts[0].Used(), r.Hosts[1].Used())
	}
	if len(r.VMs()) != 2 {
		t.Fatalf("rack VMs = %d, want 2", len(r.VMs()))
	}
}

func TestPopulateRespectsCapacity(t *testing.T) {
	c := testCluster(t, 4)
	n := c.Populate(PopulateOptions{VMsPerHost: 6, MinCapacity: 5, MaxCapacity: 20, Seed: 1})
	if n == 0 {
		t.Fatal("Populate created no VMs")
	}
	if len(c.VMs()) != n {
		t.Fatalf("VMs() = %d, want %d", len(c.VMs()), n)
	}
	for _, h := range c.Hosts() {
		if h.Used() > h.Capacity+1e-9 {
			t.Fatalf("host %d oversubscribed: %v > %v", h.ID, h.Used(), h.Capacity)
		}
	}
}

func TestPopulateDeterministic(t *testing.T) {
	c1 := testCluster(t, 4)
	c2 := testCluster(t, 4)
	opt := PopulateOptions{VMsPerHost: 4, MinCapacity: 2, MaxCapacity: 15, Seed: 9, DependencyProb: 0.3}
	if c1.Populate(opt) != c2.Populate(opt) {
		t.Fatal("same-seed Populate created different VM counts")
	}
	if c1.Deps.NumEdges() != c2.Deps.NumEdges() {
		t.Fatal("same-seed Populate created different dependency edges")
	}
}

func TestPopulateDependenciesNeverCoHosted(t *testing.T) {
	c := testCluster(t, 4)
	c.Populate(PopulateOptions{VMsPerHost: 5, MinCapacity: 2, MaxCapacity: 10, Seed: 3, DependencyProb: 0.8})
	for _, vm := range c.VMs() {
		for _, peer := range c.Deps.Peers(vm.ID) {
			p := c.VM(peer)
			if p != nil && p.Host() == vm.Host() {
				t.Fatalf("dependent VMs %d and %d share host %d", vm.ID, peer, vm.Host().ID)
			}
		}
	}
}

func TestWorkloadStdDev(t *testing.T) {
	c := testCluster(t, 4)
	if c.WorkloadStdDev() != 0 {
		t.Fatal("empty cluster stddev should be 0")
	}
	// Load one host fully: stddev becomes positive.
	if _, err := c.AddVM(c.Hosts()[0], 100, 1, false); err != nil {
		t.Fatal(err)
	}
	sd := c.WorkloadStdDev()
	if sd <= 0 {
		t.Fatalf("stddev = %v, want > 0", sd)
	}
	// Balance the load across all hosts: stddev returns to ~0.
	c2 := testCluster(t, 4)
	for _, h := range c2.Hosts() {
		if _, err := c2.AddVM(h, 50, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := c2.WorkloadStdDev(); math.Abs(got) > 1e-9 {
		t.Fatalf("balanced stddev = %v, want 0", got)
	}
}

func TestDependencyGraphBasics(t *testing.T) {
	d := NewDependencyGraph()
	d.AddDependency(1, 2)
	if !d.Dependent(1, 2) || !d.Dependent(2, 1) {
		t.Fatal("dependency not symmetric")
	}
	d.AddDependency(1, 1) // self edge ignored
	if d.Dependent(1, 1) {
		t.Fatal("self dependency stored")
	}
	if d.Degree(1) != 1 || d.NumEdges() != 1 {
		t.Fatalf("degree=%d edges=%d", d.Degree(1), d.NumEdges())
	}
	d.RemoveDependency(1, 2)
	if d.Dependent(1, 2) {
		t.Fatal("RemoveDependency failed")
	}
}

func TestDependencyGraphRemoveVM(t *testing.T) {
	d := NewDependencyGraph()
	d.AddDependency(1, 2)
	d.AddDependency(1, 3)
	d.RemoveVM(1)
	if d.Dependent(2, 1) || d.Dependent(3, 1) || d.Degree(1) != 0 {
		t.Fatal("RemoveVM left stale edges")
	}
	if d.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0", d.NumEdges())
	}
}

func TestPeerRacks(t *testing.T) {
	c := testCluster(t, 4)
	// Place a in rack 0 and peers in racks 1 and 2.
	a, _ := c.AddVM(c.Racks[0].Hosts[0], 5, 1, false)
	b, _ := c.AddVM(c.Racks[1].Hosts[0], 5, 1, false)
	e, _ := c.AddVM(c.Racks[2].Hosts[0], 5, 1, false)
	f, _ := c.AddVM(c.Racks[2].Hosts[1], 5, 1, false)
	c.Deps.AddDependency(a.ID, b.ID)
	c.Deps.AddDependency(a.ID, e.ID)
	c.Deps.AddDependency(a.ID, f.ID)
	racks := c.Deps.PeerRacks(c, a.ID, nil)
	if len(racks) != 2 {
		t.Fatalf("PeerRacks = %v, want 2 distinct racks", racks)
	}
	got := map[int]bool{}
	for _, r := range racks {
		got[r] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("PeerRacks = %v, want {1, 2}", racks)
	}
}

// Property: total cluster Used equals the sum of VM capacities, under any
// sequence of adds and moves.
func TestCapacityConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
		if err != nil {
			return false
		}
		c, err := NewCluster(ft.Graph, Config{HostsPerRack: 3, HostCapacity: 50, ToRCapacity: 150})
		if err != nil {
			return false
		}
		c.Populate(PopulateOptions{VMsPerHost: 3, MinCapacity: 1, MaxCapacity: 20, Seed: seed})
		wantTotal := 0.0
		for _, vm := range c.VMs() {
			wantTotal += vm.Capacity
		}
		// Random moves.
		hosts := c.Hosts()
		s := seed
		for _, vm := range c.VMs() {
			s = s*2862933555777941757 + 3037000493
			dst := hosts[int(((s>>13)%int64(len(hosts)))+int64(len(hosts)))%len(hosts)]
			_ = c.Move(vm, dst) // failures allowed; they must not lose VMs
		}
		gotTotal := 0.0
		for _, h := range c.Hosts() {
			gotTotal += h.Used()
		}
		return math.Abs(gotTotal-wantTotal) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHostResidencyStaysIDOrdered drives a seeded random mix of every
// operation that touches a host's resident list and checks after each one
// that VMs() is strictly ascending by ID, agrees with VM.Host(), and that
// Used() is the ID-ordered sum.
func TestHostResidencyStaysIDOrdered(t *testing.T) {
	c := testCluster(t, 4)
	rng := rand.New(rand.NewSource(7))
	hosts := c.Hosts()
	var live []*VM
	check := func(op string) {
		t.Helper()
		placed := 0
		for _, h := range hosts {
			vms := h.VMs()
			sum := 0.0
			for i, vm := range vms {
				if i > 0 && vms[i-1].ID >= vm.ID {
					t.Fatalf("after %s: host %d residents out of order: %d before %d", op, h.ID, vms[i-1].ID, vm.ID)
				}
				if vm.Host() != h {
					t.Fatalf("after %s: vm %d listed on host %d but Host() disagrees", op, vm.ID, h.ID)
				}
				sum += vm.Capacity
			}
			if h.Used() != sum {
				t.Fatalf("after %s: host %d Used() = %v, ID-ordered sum %v", op, h.ID, h.Used(), sum)
			}
			placed += len(vms)
		}
		want := 0
		for _, vm := range live {
			if vm.Host() != nil {
				want++
			}
		}
		if placed != want {
			t.Fatalf("after %s: %d VMs resident, %d have a host", op, placed, want)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
	}
	for step := 0; step < 2000; step++ {
		h := hosts[rng.Intn(len(hosts))]
		switch op := rng.Intn(6); {
		case op == 0 || len(live) < 8:
			if vm, err := c.AddVM(h, 1+rng.Float64()*19, 1, false); err == nil {
				live = append(live, vm)
			}
			check("AddVM")
		case op == 1:
			_ = c.Move(live[rng.Intn(len(live))], h)
			check("Move")
		case op == 2:
			i := rng.Intn(len(live))
			c.Remove(live[i])
			live = append(live[:i], live[i+1:]...)
			check("Remove")
		case op == 3:
			// Only Move refuses a conflict; an edge between two VMs already
			// sharing a host is the caller's to avoid.
			x, y := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if x.Host() != y.Host() {
				c.Deps.AddDependency(x.ID, y.ID)
			}
			check("AddDependency")
		case op == 4:
			c.Deps.RemoveDependency(live[rng.Intn(len(live))].ID, live[rng.Intn(len(live))].ID)
			check("RemoveDependency")
		default:
			snap := snapshotOf(t, c)
			c2 := testCluster(t, 4)
			if err := c2.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			for i, h2 := range c2.Hosts() {
				a, b := hosts[i].VMs(), h2.VMs()
				if len(a) != len(b) {
					t.Fatalf("restored host %d has %d residents, want %d", i, len(b), len(a))
				}
				for k := range a {
					if a[k].ID != b[k].ID {
						t.Fatalf("restored host %d resident %d = vm %d, want vm %d", i, k, b[k].ID, a[k].ID)
					}
				}
			}
		}
	}
}

// TestCheckInvariantsNamesTheViolation breaks a sound cluster one way at a
// time, behind the API's back, and wants each break reported by VM and host.
func TestCheckInvariantsNamesTheViolation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(c *Cluster, a, b *Host)
		want    string
	}{
		{"back-pointer", func(c *Cluster, a, b *Host) { a.vms[0].host = b }, "vm 0 is resident on host 0 but points at host 1"},
		{"detached yet listed", func(c *Cluster, a, b *Host) { a.vms[0].host = nil }, "vm 0 is resident on host 0 but points at no host"},
		{"on two hosts", func(c *Cluster, a, b *Host) { b.insert(a.vms[0]) }, "vm 0 is resident on host 1 but points at host 0"},
		{"attached yet unlisted", func(c *Cluster, a, b *Host) { a.remove(1) }, "vm 1 points at host 0, which does not list it"},
		{"stranger", func(c *Cluster, a, b *Host) { c.vms[1] = nil }, "host 0 holds a vm 1 the cluster does not know"},
		{"out of order", func(c *Cluster, a, b *Host) { a.vms[0], a.vms[1] = a.vms[1], a.vms[0] }, "host 0 lists vm 0 after vm 1"},
		{"on no host", func(c *Cluster, a, b *Host) { vm := a.vms[0]; a.remove(vm.ID); vm.host = nil }, "vm 0 is on no host"},
		{"over capacity", func(c *Cluster, a, b *Host) { a.vms[0].Capacity = 100 }, "host 0 holds 110, over capacity 100"},
		{"used kept stale", func(c *Cluster, a, b *Host) { a.vms[0].Capacity = 20 }, "host 0 keeps 20 used, but its residents sum to 30"},
		{"peers out of order", func(c *Cluster, a, b *Host) { p := c.Deps.peers[2]; p[0], p[1] = p[1], p[0] }, "vm 2 lists peer 0 after peer 1"},
		{"self-edge", func(c *Cluster, a, b *Host) { c.Deps.peers[2] = append(c.Deps.peers[2], 2) }, "vm 2 is its own dependency"},
		{"one-sided edge", func(c *Cluster, a, b *Host) { c.Deps.peers[0] = nil }, "vm 2 lists peer 0, which does not list it back"},
		{"edge to a stranger", func(c *Cluster, a, b *Host) { c.Deps.AddDependency(0, 7) }, "dependency 0–7 names a vm the cluster does not know"},
		{"dependent vms co-hosted", func(c *Cluster, a, b *Host) {
			vm := b.vms[0]
			b.remove(vm.ID)
			a.insert(vm)
			vm.host = a
		}, "dependent vms 0 and 2 share host 0"},
	} {
		// VMs 0 and 1 on host a, VM 2 on host b and dependent on both.
		c := testCluster(t, 4)
		a, b := c.Hosts()[0], c.Hosts()[1]
		for _, h := range []*Host{a, a, b} {
			if _, err := c.AddVM(h, 10, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		c.Deps.AddDependency(2, 1)
		c.Deps.AddDependency(2, 0)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: sound cluster rejected: %v", tc.name, err)
		}
		tc.corrupt(c, a, b)
		if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want it to say %q", tc.name, err, tc.want)
		}
	}
}

// TestVMsReturnsCopy pins the contract callers rely on: they move VMs
// while ranging over the returned slice.
func TestVMsReturnsCopy(t *testing.T) {
	c := testCluster(t, 4)
	src, dst := c.Hosts()[0], c.Hosts()[1]
	for i := 0; i < 4; i++ {
		if _, err := c.AddVM(src, 10, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for _, vm := range src.VMs() {
		seen++
		if err := c.Move(vm, dst); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 4 || len(src.VMs()) != 0 || len(dst.VMs()) != 4 {
		t.Fatalf("ranged over %d VMs; src keeps %d, dst has %d", seen, len(src.VMs()), len(dst.VMs()))
	}
}

// TestDependencyConflictNamesLowestResident: the error text used to depend
// on map iteration order when several residents conflicted.
func TestDependencyConflictNamesLowestResident(t *testing.T) {
	c := testCluster(t, 4)
	h := c.Hosts()[0]
	a, _ := c.AddVM(h, 5, 1, false)
	b, _ := c.AddVM(h, 5, 1, false)
	vm, _ := c.AddVM(c.Hosts()[1], 5, 1, false)
	c.Deps.AddDependency(vm.ID, b.ID)
	c.Deps.AddDependency(vm.ID, a.ID)
	want := fmt.Sprintf("conflicts with resident vm %d on host %d", a.ID, h.ID)
	for i := 0; i < 20; i++ {
		if err := c.Move(vm, h); !errors.Is(err, ErrDependencyConflict) || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want ErrDependencyConflict naming %q", err, want)
		}
	}
}

// TestPeerRacksOrderIsDeterministic: racks come in the order the ascending
// peer list first reaches them — not in the order edges were added, and not
// in an order that changes from call to call (as a map's did, and with it
// the order Eqn. (1)'s dependency term summed in).
func TestPeerRacksOrderIsDeterministic(t *testing.T) {
	peerRacks := []int{6, 1, 6, 4, 7, 1, 3} // racks of VMs 1..7; VM 0 sits in rack 0
	build := func(backwards bool) *Cluster {
		c := testCluster(t, 4)
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
		return c
	}
	want := []int{6, 1, 4, 7, 3}
	var buf [8]int
	for _, c := range []*Cluster{build(false), build(true)} {
		for call := 0; call < 200; call++ {
			got := c.Deps.PeerRacks(c, 0, buf[:0])
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("call %d: PeerRacks = %v, want %v", call, got, want)
			}
		}
	}
	c := build(false)
	c.Remove(c.VM(1)) // rack 6 is now first reached through VM 3
	if got := c.Deps.PeerRacks(c, 0, buf[:0]); fmt.Sprint(got) != fmt.Sprint([]int{1, 6, 4, 7, 3}) {
		t.Fatalf("after removing VM 1: PeerRacks = %v, want [1 6 4 7 3]", got)
	}
	if got := c.Deps.PeerRacks(c, 0, []int{9}); fmt.Sprint(got) != fmt.Sprint([]int{9, 1, 6, 4, 7, 3}) {
		t.Fatalf("PeerRacks onto [9] = %v, want it appended", got)
	}
}

// TestDependencyReadsZeroAlloc is the allocation gate for the per-period
// walk over G_d (CI "Allocation gate" step): the runtime asks Peers of every
// VM every period, and a migration asks Dependent of every resident of every
// candidate host.
func TestDependencyReadsZeroAlloc(t *testing.T) {
	c := testCluster(t, 4)
	c.Populate(PopulateOptions{DependencyProb: 0.8, CrossRackDependencyProb: 0.5, Seed: 3})
	vms := c.VMs()
	if c.Deps.NumEdges() == 0 {
		t.Fatal("no dependencies to read")
	}
	sink := 0
	alloctest.Count(t, "peers", func() {
		for _, vm := range vms {
			sink += len(c.Deps.Peers(vm.ID))
		}
	})
	alloctest.Count(t, "dependent", func() {
		for _, vm := range vms {
			if c.Deps.Dependent(vm.ID, vms[0].ID) {
				sink++
			}
		}
	})
	var buf [8]int
	alloctest.Count(t, "peer-racks", func() {
		for _, vm := range vms {
			sink += len(c.Deps.PeerRacks(c, vm.ID, buf[:0]))
		}
	})
	_ = sink
}

// TestAccountingSteadyStateAllocs is the allocation gate for the per-step
// bookkeeping reads (CI "Allocation gate" step).
func TestAccountingSteadyStateAllocs(t *testing.T) {
	c := testCluster(t, 4)
	c.Populate(PopulateOptions{Seed: 3})
	h := c.Hosts()[0]
	var sink float64
	alloctest.Count(t, "host", func() { sink += h.Free() + h.Utilization() })
	alloctest.Count(t, "spread", func() { sink += c.WorkloadStdDev() })
	_ = sink
}

// TestRackVMsOneAlloc pins Rack.VMs to one allocation (the copy), none for
// an empty rack: the shim's ToR branch and its switch-alert path call it
// on every alert they handle.
func TestRackVMsOneAlloc(t *testing.T) {
	c := testCluster(t, 4)
	empty := c.Racks[0]
	c.Populate(PopulateOptions{Seed: 3})
	for _, h := range empty.Hosts {
		for _, vm := range h.VMs() {
			c.Remove(vm)
		}
	}
	full := c.Racks[1]
	want := 0
	for _, h := range full.Hosts {
		want += len(h.Residents())
	}
	if want == 0 {
		t.Fatal("populated rack is empty")
	}
	if got := full.VMs(); len(got) != want {
		t.Fatalf("Rack.VMs = %d VMs, want %d", len(got), want)
	}
	var sink int
	alloctest.Count(t, "full", func() { sink += len(full.VMs()) })
	alloctest.Count(t, "empty", func() { sink += len(empty.VMs()) })
	_ = sink
}

// TestWorkloadStdDevKeptUntilPlacementMoves: a period that places, moves
// and removes nothing re-sums no host; every change to a host's residents
// and every restore makes the next call sum again, and whatever it returns
// equals a fresh sum bit for bit.
func TestWorkloadStdDevKeptUntilPlacementMoves(t *testing.T) {
	c := testCluster(t, 4)
	c.Populate(PopulateOptions{Seed: 3, CrossRackDependencyProb: 0.3})
	check := func(what string, wantSum bool) {
		t.Helper()
		before := c.HostSums()
		got := c.WorkloadStdDev()
		if summed := c.HostSums() != before; summed != wantSum {
			t.Fatalf("%s: summed hosts = %v, want %v", what, summed, wantSum)
		}
		if want := c.workloadStdDev(); got != want {
			t.Fatalf("%s: WorkloadStdDev %v, a fresh sum %v", what, got, want)
		}
	}
	check("first call", true)
	for i := 0; i < 3; i++ {
		check("quiet period", false)
	}
	vm := c.VMs()[0]
	var dst *Host
	for _, h := range c.Hosts() {
		if h != vm.Host() && h.Free() >= vm.Capacity && c.Move(vm, h) == nil {
			dst = h
			break
		}
	}
	if dst == nil {
		t.Fatal("no host takes the VM")
	}
	check("after Move", true)
	check("quiet period after Move", false)
	if err := c.Move(vm, dst); err != nil { // already there: no change
		t.Fatal(err)
	}
	check("Move onto its own host", false)
	c.Remove(vm)
	check("after Remove", true)
	if _, err := c.AddVM(c.Hosts()[len(c.Hosts())-1], 1, 1, false); err != nil {
		t.Fatal(err)
	}
	check("after AddVM", true)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	restored := testCluster(t, 4)
	restored.WorkloadStdDev() // an empty cluster's result, kept
	if err := restored.Restore(snapshotOf(t, c)); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.WorkloadStdDev(), c.WorkloadStdDev(); got != want {
		t.Fatalf("restored cluster's WorkloadStdDev %v, the original's %v", got, want)
	}

	// A capacity written behind the counter's back is what CheckInvariants
	// reports.
	c.Hosts()[0].Capacity *= 2
	if c.CheckInvariants() == nil {
		t.Fatal("a kept WorkloadStdDev the hosts no longer sum to is not reported")
	}
}
