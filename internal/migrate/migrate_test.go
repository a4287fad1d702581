package migrate

import (
	"errors"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

type fixture struct {
	cluster *dcn.Cluster
	model   *cost.Model
}

func newFixture(t *testing.T, pods, hostsPerRack int) *fixture {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: hostsPerRack, HostCapacity: 100, ToRCapacity: 100 * float64(hostsPerRack)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cost.New(c, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cluster: c, model: m}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	// Zero fields now mean "use the default" and must validate.
	if err := (Params{}).Validate(); err != nil {
		t.Fatalf("zero params invalid: %v", err)
	}
	bad := []Params{
		{Alpha: -0.1, Beta: 0.2, NeighborSwitchHops: 1},
		{Alpha: 0.2, Beta: 1.5, NeighborSwitchHops: 1},
		{Alpha: 0.2, Beta: 0.2, NeighborSwitchHops: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	def := (Params{}).WithDefaults()
	if def.Alpha != DefaultParams().Alpha || def.NeighborSwitchHops != DefaultParams().NeighborSwitchHops {
		t.Fatalf("WithDefaults() = %+v, want DefaultParams()", def)
	}
}

func TestNewShimNeighbors(t *testing.T) {
	fx := newFixture(t, 4, 2)
	s, err := NewShim(fx.cluster, fx.model, fx.cluster.Racks[0], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Fat-Tree(4): one-hop region of a ToR = the other ToR in its pod.
	nb := s.NeighborRacks()
	if len(nb) != 1 || nb[0].Index != 1 {
		t.Fatalf("neighbors = %v", rackIndices(nb))
	}
}

func rackIndices(rs []*dcn.Rack) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Index
	}
	return out
}

func TestRequest(t *testing.T) {
	fx := newFixture(t, 4, 2)
	h := fx.cluster.Hosts()[0]
	vm, err := fx.cluster.AddVM(fx.cluster.Hosts()[1], 60, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !Request(vm, h) {
		t.Fatal("empty host should ACK")
	}
	if _, err := fx.cluster.AddVM(h, 50, 1, false); err != nil {
		t.Fatal(err)
	}
	if Request(vm, h) {
		t.Fatal("full host should REJECT")
	}
}

func TestVMMigrationMovesOverloadedVM(t *testing.T) {
	fx := newFixture(t, 4, 2)
	src := fx.cluster.Racks[0].Hosts[0]
	vm, err := fx.cluster.AddVM(src, 80, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := fx.cluster.Racks[1].Hosts[0]
	res, err := Migrate(fx.cluster, fx.model, []*dcn.VM{vm}, []*dcn.Host{dst}, MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("migrations = %d, want 1", len(res.Migrations))
	}
	if vm.Host() != dst {
		t.Fatal("VM did not move")
	}
	if res.TotalCost <= 0 {
		t.Fatalf("cost = %v, want > 0", res.TotalCost)
	}
	if res.SearchSpace != 1 {
		t.Fatalf("search space = %d, want 1", res.SearchSpace)
	}
}

func TestVMMigrationPrefersCheaperDestination(t *testing.T) {
	fx := newFixture(t, 4, 2)
	vm, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 50, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	samePod := fx.cluster.Racks[1].Hosts[0]
	crossPod := fx.cluster.Racks[7].Hosts[0]
	res, err := Migrate(fx.cluster, fx.model, []*dcn.VM{vm}, []*dcn.Host{crossPod, samePod}, MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Host() != samePod {
		t.Fatalf("VM went to %v, want same-pod host", vm.Host().ID)
	}
	if len(res.Migrations) != 1 || res.Migrations[0].To != samePod {
		t.Fatal("migration record wrong")
	}
}

func TestVMMigrationRespectsCapacity(t *testing.T) {
	fx := newFixture(t, 4, 2)
	vm, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 80, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := fx.cluster.Racks[1].Hosts[0]
	if _, err := fx.cluster.AddVM(dst, 50, 1, false); err != nil {
		t.Fatal(err)
	}
	res, err := Migrate(fx.cluster, fx.model, []*dcn.VM{vm}, []*dcn.Host{dst}, MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 0 || len(res.Unplaced) != 1 {
		t.Fatalf("migrations=%d unplaced=%d", len(res.Migrations), len(res.Unplaced))
	}
	if vm.Host() != fx.cluster.Racks[0].Hosts[0] {
		t.Fatal("VM should not have moved")
	}
}

func TestVMMigrationAvoidsDependencyConflicts(t *testing.T) {
	fx := newFixture(t, 4, 2)
	vm, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 30, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := fx.cluster.Racks[1].Hosts[0]
	peer, err := fx.cluster.AddVM(dst, 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	fx.cluster.Deps.AddDependency(vm.ID, peer.ID)
	other := fx.cluster.Racks[1].Hosts[1]
	res, err := Migrate(fx.cluster, fx.model, []*dcn.VM{vm}, []*dcn.Host{dst, other}, MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Host() != other {
		t.Fatalf("VM should avoid the conflicting host; went to %d", vm.Host().ID)
	}
	if len(res.Migrations) != 1 {
		t.Fatal("expected one migration")
	}
}

func TestVMMigrationTwoVMsOneSlotEach(t *testing.T) {
	fx := newFixture(t, 4, 2)
	a, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 60, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[1], 60, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two destinations, each able to hold only one 60-cap VM.
	d1 := fx.cluster.Racks[1].Hosts[0]
	d2 := fx.cluster.Racks[1].Hosts[1]
	res, err := Migrate(fx.cluster, fx.model, []*dcn.VM{a, b}, []*dcn.Host{d1, d2}, MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 2 {
		t.Fatalf("migrations = %d, want 2", len(res.Migrations))
	}
	if a.Host() == b.Host() {
		t.Fatal("both VMs landed on the same host")
	}
}

func TestVMMigrationNoCandidates(t *testing.T) {
	fx := newFixture(t, 4, 2)
	vm, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(fx.cluster, fx.model, []*dcn.VM{vm}, nil, MigrationOptions{}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("want ErrNoCandidates, got %v", err)
	}
}

func TestProcessAlertsServerAlert(t *testing.T) {
	fx := newFixture(t, 4, 2)
	rack := fx.cluster.Racks[0]
	h := rack.Hosts[0]
	// Overload the host with several small VMs.
	var last *dcn.VM
	for i := 0; i < 4; i++ {
		vm, err := fx.cluster.AddVM(h, 20, float64(i+1), false)
		if err != nil {
			t.Fatal(err)
		}
		last = vm
	}
	_ = last
	s, err := NewShim(fx.cluster, fx.model, rack, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProcessAlerts([]alert.Alert{{
		Kind: alert.FromServer, HostID: h.ID, RackIndex: rack.Index, Value: 0.95,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("server alert should trigger at least one migration")
	}
	// α = 0.2, host capacity 100 → budget 20 → one 20-cap VM moves.
	if h.Used() >= 80 {
		t.Fatalf("host still loaded at %v", h.Used())
	}
	if rep.TotalCost <= 0 || rep.SearchSpace <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestProcessAlertsToRAlert(t *testing.T) {
	fx := newFixture(t, 4, 2)
	rack := fx.cluster.Racks[0]
	for _, h := range rack.Hosts {
		for i := 0; i < 3; i++ {
			if _, err := fx.cluster.AddVM(h, 15, 1, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := rack.Used()
	s, err := NewShim(fx.cluster, fx.model, rack, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProcessAlerts([]alert.Alert{{Kind: alert.FromLocalToR, RackIndex: rack.Index, Value: 0.92}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("ToR alert should migrate VMs out of the rack")
	}
	if rack.Used() >= before {
		t.Fatalf("rack load did not drop: %v -> %v", before, rack.Used())
	}
	// ToR-alerted VMs must leave the rack entirely.
	for _, m := range rep.Migrations {
		if m.To.Rack() == rack {
			t.Fatal("ToR-relief migration stayed inside the rack")
		}
	}
}

func TestProcessAlertsOuterSwitchReroutesOnly(t *testing.T) {
	fx := newFixture(t, 4, 2)
	rack := fx.cluster.Racks[0]
	vm, err := fx.cluster.AddVM(rack.Hosts[0], 10, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	vm.Alert = 0.95
	s, err := NewShim(fx.cluster, fx.model, rack, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	swID := fx.cluster.Graph.Switches()[0]
	rep, err := s.ProcessAlerts([]alert.Alert{{Kind: alert.FromOuterSwitch, SwitchID: swID, Value: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 0 {
		t.Fatal("outer-switch alert must not migrate")
	}
	if len(rep.Rerouted) != 1 || rep.Rerouted[0] != vm {
		t.Fatalf("rerouted = %v", rep.Rerouted)
	}
}

func TestProcessAlertsEmptySet(t *testing.T) {
	fx := newFixture(t, 4, 2)
	s, err := NewShim(fx.cluster, fx.model, fx.cluster.Racks[0], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProcessAlerts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 0 || rep.TotalCost != 0 {
		t.Fatalf("empty alert set produced %+v", rep)
	}
}

func TestProcessAlertsIgnoresForeignHost(t *testing.T) {
	fx := newFixture(t, 4, 2)
	other := fx.cluster.Racks[2].Hosts[0]
	if _, err := fx.cluster.AddVM(other, 50, 1, false); err != nil {
		t.Fatal(err)
	}
	s, err := NewShim(fx.cluster, fx.model, fx.cluster.Racks[0], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProcessAlerts([]alert.Alert{{Kind: alert.FromServer, HostID: other.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 0 {
		t.Fatal("shim migrated a VM outside its rack")
	}
}

func TestVMMigrationDelaySensitiveExcludedUpstream(t *testing.T) {
	// PRIORITY (not VMMIGRATION) excludes delay-sensitive VMs; confirm the
	// shim pipeline as a whole never moves one.
	fx := newFixture(t, 4, 2)
	rack := fx.cluster.Racks[0]
	h := rack.Hosts[0]
	ds, err := fx.cluster.AddVM(h, 30, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.cluster.AddVM(h, 30, 2, false); err != nil {
		t.Fatal(err)
	}
	s, err := NewShim(fx.cluster, fx.model, rack, Params{Alpha: 0.4, Beta: 0.4, NeighborSwitchHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ProcessAlerts([]alert.Alert{{Kind: alert.FromServer, HostID: h.ID}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Migrations {
		if m.VM == ds {
			t.Fatal("delay-sensitive VM was migrated")
		}
	}
	if ds.Host() != h {
		t.Fatal("delay-sensitive VM moved")
	}
}
