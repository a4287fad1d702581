package centralized

import (
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/migrate"
	"sheriff/internal/topology"
)

func newFixture(t *testing.T, pods int) (*dcn.Cluster, *cost.Model) {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	m, err := cost.New(c, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestMigrateUsesGlobalPool(t *testing.T) {
	c, m := newFixture(t, 4)
	vm, err := c.AddVM(c.Racks[0].Hosts[0], 50, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(c, m)
	res, err := mgr.Migrate([]*dcn.VM{vm})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("migrations = %d", len(res.Migrations))
	}
	// Search space covers every host.
	if res.SearchSpace != len(c.Hosts()) {
		t.Fatalf("search space = %d, want %d", res.SearchSpace, len(c.Hosts()))
	}
}

func TestCentralizedCostAtMostRegional(t *testing.T) {
	// The centralized manager sees a superset of destinations, so for a
	// single VM its chosen cost can never exceed the regional shim's.
	cC, mC := newFixture(t, 4)
	cR, mR := newFixture(t, 4)

	vmC, err := cC.AddVM(cC.Racks[0].Hosts[0], 50, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	vmR, err := cR.AddVM(cR.Racks[0].Hosts[0], 50, 1, false)
	if err != nil {
		t.Fatal(err)
	}

	resC, err := New(cC, mC).Migrate([]*dcn.VM{vmC})
	if err != nil {
		t.Fatal(err)
	}
	shim, err := migrate.NewShim(cR, mR, cR.Racks[0], migrate.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var regionalHosts []*dcn.Host
	for _, r := range shim.NeighborRacks() {
		regionalHosts = append(regionalHosts, r.Hosts...)
	}
	resR, err := migrate.Migrate(cR, mR, []*dcn.VM{vmR}, regionalHosts, migrate.MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resC.TotalCost > resR.TotalCost+1e-9 {
		t.Fatalf("centralized %v > regional %v", resC.TotalCost, resR.TotalCost)
	}
	if resC.SearchSpace <= resR.SearchSpace {
		t.Fatalf("centralized search space %d should exceed regional %d", resC.SearchSpace, resR.SearchSpace)
	}
}

func TestPlanDestinationsExactVsLocalSearch(t *testing.T) {
	c, m := newFixture(t, 4)
	mgr := New(c, m)
	sources := []int{0, 2, 5}
	exact, err := mgr.PlanDestinations(sources, PlanOptions{K: 2, P: 1, Exact: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := mgr.PlanDestinations(sources, PlanOptions{K: 2, P: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Open) != 2 || len(ls.Open) != 2 {
		t.Fatalf("open sizes: %d / %d", len(exact.Open), len(ls.Open))
	}
	if ls.Cost < exact.Cost-1e-9 {
		t.Fatalf("local search beat the exact optimum: %v < %v", ls.Cost, exact.Cost)
	}
	if ls.Cost > 5*exact.Cost+1e-9 {
		t.Fatalf("local search broke the 3+2/1 guarantee: %v > 5×%v", ls.Cost, exact.Cost)
	}
}

func TestPlanDestinationsValidation(t *testing.T) {
	c, m := newFixture(t, 4)
	mgr := New(c, m)
	if _, err := mgr.PlanDestinations([]int{0}, PlanOptions{K: 0, P: 1, Exact: true}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := mgr.PlanDestinations([]int{0}, PlanOptions{K: 99, P: 1, Exact: true}); err == nil {
		t.Error("k>racks accepted")
	}
}
