package centralized

import (
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
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
