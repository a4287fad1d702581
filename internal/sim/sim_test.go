package sim

import (
	"slices"
	"testing"

	"sheriff/internal/faults"
	"sheriff/internal/migrate"
)

func TestKindString(t *testing.T) {
	if FatTree.String() != "fat-tree" || BCube.String() != "bcube" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestBuildFatTree(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cluster.Racks) != 8 {
		t.Fatalf("racks = %d", len(s.Cluster.Racks))
	}
	if len(s.Shims) != 8 {
		t.Fatalf("shims = %d", len(s.Shims))
	}
}

func TestBuildBCube(t *testing.T) {
	s, err := Build(Config{Kind: BCube, Size: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cluster.Racks) != 64 {
		t.Fatalf("racks = %d, want 64 (8² server nodes)", len(s.Cluster.Racks))
	}
}

func TestBuildInvalid(t *testing.T) {
	if _, err := Build(Config{Kind: FatTree, Size: 3}); err == nil {
		t.Error("odd pods accepted")
	}
	if _, err := Build(Config{Kind: Kind(7), Size: 4}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestPopulate(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Populate()
	if n == 0 {
		t.Fatal("Populate created nothing")
	}
	if len(s.Cluster.VMs()) != n {
		t.Fatalf("VM count mismatch: %d vs %d", len(s.Cluster.VMs()), n)
	}
}

func TestPopulateSkewedCreatesImbalance(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.PopulateSkewed(0.5)
	sd := s.Cluster.WorkloadStdDev()
	if sd < 10 {
		t.Fatalf("skewed population stddev = %.2f, want clearly unbalanced (>10)", sd)
	}
}

func TestRunBalancingReducesStdDev(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.PopulateSkewed(0.5)
	series, err := s.RunBalancing(24, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 25 {
		t.Fatalf("series length = %d, want 25", len(series))
	}
	first, last := series[0], series[len(series)-1]
	if last >= first {
		t.Fatalf("stddev did not fall: %.2f -> %.2f", first, last)
	}
	// The paper's Fig. 9 shows roughly a halving over 24 rounds; require
	// at least a 30% reduction to confirm the shape.
	if last > 0.7*first {
		t.Errorf("stddev only fell %.2f -> %.2f (<30%% reduction)", first, last)
	}
}

func TestRunBalancingBCube(t *testing.T) {
	s, err := Build(Config{Kind: BCube, Size: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.PopulateSkewed(0.5)
	series, err := s.RunBalancing(24, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if series[len(series)-1] >= series[0] {
		t.Fatalf("BCube stddev did not fall: %.2f -> %.2f", series[0], series[len(series)-1])
	}
}

func TestRunBalancingValidation(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunBalancing(0, 0.05); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestSeedAlertsFraction(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.Populate()
	alerts := s.SeedAlerts()
	total := 0
	for _, vms := range alerts {
		total += len(vms)
		for _, vm := range vms {
			if vm.Alert < 0.9 {
				t.Fatalf("alerted VM has Alert = %v", vm.Alert)
			}
		}
	}
	nVMs := len(s.Cluster.VMs())
	// Roughly 5%, but at least one per rack.
	if total < nVMs/40 || total > nVMs/5 {
		t.Fatalf("alerted %d of %d VMs, want ≈ 5%%", total, nVMs)
	}
}

// TestSeedAlertsDeterministic pins the alerted VM IDs of Fat-Tree 4 at
// seed 8, rack by rack, to the selection SeedAlerts has always made: the
// same sort, shuffle and RNG draws, whatever memory it runs in.
func TestSeedAlertsDeterministic(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Populate()
	want := [][]int{{15}, {25}, {32}, {55}, {75}, {94}, {108}, {120}}
	alerts := s.SeedAlerts()
	if len(alerts) != len(want) {
		t.Fatalf("alerts for %d racks, want %d", len(alerts), len(want))
	}
	for rack, vms := range alerts {
		var ids []int
		for _, vm := range vms {
			ids = append(ids, vm.ID)
		}
		if !slices.Equal(ids, want[rack]) {
			t.Fatalf("rack %d alerted VMs %v, want %v", rack, ids, want[rack])
		}
	}
}

func TestCompareFatTree(t *testing.T) {
	res, err := Compare(Config{Kind: FatTree, Size: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alerted == 0 {
		t.Fatal("no VMs alerted")
	}
	// The centralized manager sees every host; Sheriff only regions.
	if res.SheriffSpace >= res.CentralSpace {
		t.Fatalf("Sheriff space %d should be below centralized %d", res.SheriffSpace, res.CentralSpace)
	}
	// Costs should be comparable: Sheriff within 2× of the global optimum
	// (the paper's Fig. 11 shows them close).
	if res.SheriffCost > 2*res.CentralCost {
		t.Fatalf("Sheriff cost %.1f far above centralized %.1f", res.SheriffCost, res.CentralCost)
	}
	if res.CentralCost > res.SheriffCost*1.05+1e-9 {
		t.Fatalf("centralized cost %.1f above Sheriff %.1f: global pool should win", res.CentralCost, res.SheriffCost)
	}
}

func TestCompareBCube(t *testing.T) {
	res, err := Compare(Config{Kind: BCube, Size: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.SheriffSpace >= res.CentralSpace {
		t.Fatalf("Sheriff space %d should be below centralized %d", res.SheriffSpace, res.CentralSpace)
	}
}

func TestCompareScalesWithSize(t *testing.T) {
	small, err := Compare(Config{Kind: FatTree, Size: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compare(Config{Kind: FatTree, Size: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if big.CentralSpace <= small.CentralSpace {
		t.Fatalf("central search space should grow with size: %d vs %d", small.CentralSpace, big.CentralSpace)
	}
	if big.Racks <= small.Racks {
		t.Fatal("rack count should grow")
	}
}

func TestComparePlanningExactSmall(t *testing.T) {
	res, err := ComparePlanning(Config{Kind: FatTree, Size: 4, Seed: 5}, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 || res.Clients < 1 || res.Racks != 8 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	if !res.HasExact {
		t.Fatal("exact reference missing")
	}
	if res.LocalCost < res.ExactCost-1e-9 {
		t.Fatalf("local search %v below optimum %v", res.LocalCost, res.ExactCost)
	}
	if r := res.Ratio(); r < 1-1e-9 || r > 5+1e-9 {
		t.Fatalf("ratio %v outside [1, 5]", r)
	}
}

func TestComparePlanningDefaultK(t *testing.T) {
	res, err := ComparePlanning(Config{Kind: BCube, Size: 4, Seed: 6}, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 1 {
		t.Fatalf("default k = %d", res.K)
	}
	if res.HasExact {
		t.Fatal("exact reference not requested")
	}
	if res.LocalCost <= 0 {
		t.Fatalf("planning cost %v", res.LocalCost)
	}
}

// TestRunChaosSmoke is the CI chaos smoke scenario: a small fat-tree with
// pod hotspots under drop + duplication + a partition window must end with
// every alerted VM placed (the degradation ladder absorbs the faults).
func TestRunChaosSmoke(t *testing.T) {
	s, err := Build(Config{Kind: FatTree, Size: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s.PopulateHotPods(0.5, 0.85, 0.35)
	plan := faults.Plan{
		Seed:        42,
		Drop:        0.2,
		DupRate:     0.1,
		ReorderRate: 0.2,
		Jitter:      1,
		Partitions:  []faults.Partition{{Name: "pod-cut", Start: 1, Rounds: 3, Nodes: []int{0, 1}}},
	}
	res, err := s.RunChaos(plan, migrate.DistOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("%d VMs unplaced under the chaos smoke plan", len(res.Unplaced))
	}
	if len(res.Migrations) == 0 {
		t.Fatal("chaos run migrated nothing")
	}
	bad := faults.Plan{Drop: -1}
	if _, err := s.RunChaos(bad, migrate.DistOptions{}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
