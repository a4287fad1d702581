package experiments

import (
	"fmt"

	"sheriff/internal/sim"
)

// balancingSeries runs the Figs. 9/10 experiment: skewed initial load,
// 24 migration rounds, workload standard deviation per round.
func balancingSeries(kind sim.Kind, size int, seed int64) ([]float64, error) {
	s, err := sim.Build(sim.Config{Kind: kind, Size: size, Seed: seed})
	if err != nil {
		return nil, err
	}
	s.PopulateSkewed(0.5)
	return s.RunBalancing(24, 0.05)
}

// Fig9FatTreeBalancing regenerates Fig. 9: workload percentage standard
// deviation over 24 VM migration rounds on a Fat-Tree.
func Fig9FatTreeBalancing(seed int64) (*Table, error) {
	series, err := balancingSeries(sim.FatTree, 8, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 9: %w", err)
	}
	t := &Table{
		Name:    "Fig. 9",
		Title:   "Sheriff on Fat-Tree: workload percentage std dev per migration round",
		Columns: []string{"round", "stddev_pct"},
		Notes:   []string{"Fat-Tree with 8 pods, skewed initial placement, 24 rounds"},
	}
	for i, sd := range series {
		t.AddRow(float64(i), sd)
	}
	return t, nil
}

// Fig10BcubeBalancing regenerates Fig. 10: the same decay on BCube.
func Fig10BcubeBalancing(seed int64) (*Table, error) {
	series, err := balancingSeries(sim.BCube, 8, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 10: %w", err)
	}
	t := &Table{
		Name:    "Fig. 10",
		Title:   "Sheriff on BCube: workload percentage std dev per migration round",
		Columns: []string{"round", "stddev_pct"},
		Notes:   []string{"BCube(8,1): 64 server nodes, skewed initial placement, 24 rounds"},
	}
	for i, sd := range series {
		t.AddRow(float64(i), sd)
	}
	return t, nil
}

// FatTreePods is the Figs. 11–12 x-axis sweep. The paper plots 8→48; this
// one stops at 24 to keep `go test` quick. `sheriffsim -mode sweep -sizes
// 8,16,24,32,40,48 -vms 6` runs the full axis.
var FatTreePods = []int{8, 12, 16, 20, 24}

// BcubeSizes is the Figs. 13–14 x-axis sweep (switches per level; the
// paper's axis runs 2→20).
var BcubeSizes = []int{4, 8, 12, 16, 20}

// sweepCompare runs sim.Compare over a size sweep. VMsPerHost is raised
// above the default so regional pools experience mild contention — the
// regime where a centralized manager's wider view can undercut Sheriff.
func sweepCompare(kind sim.Kind, sizes []int, seed int64) ([]*sim.CompareResult, error) {
	out := make([]*sim.CompareResult, 0, len(sizes))
	for _, size := range sizes {
		r, err := sim.Compare(sim.Config{Kind: kind, Size: size, Seed: seed, VMsPerHost: 6})
		if err != nil {
			return nil, fmt.Errorf("experiments: compare %v size %d: %w", kind, size, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig11FatTreeCost regenerates Fig. 11: total migration cost of Sheriff
// (APP) vs the global optimal centralized manager (OPT) on Fat-Tree.
func Fig11FatTreeCost(seed int64) (*Table, error) {
	results, err := sweepCompare(sim.FatTree, FatTreePods, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Fig. 11",
		Title:   "Output: APP (Sheriff) vs OPT (global optimal) migration cost, Fat-Tree",
		Columns: []string{"pods", "sheriff_cost", "optimal_cost"},
		Notes:   []string{"5% of VMs per rack raise alerts; C_r=100, delta=eta=1, C_d=1"},
	}
	for i, r := range results {
		t.AddRow(float64(FatTreePods[i]), r.SheriffCost, r.CentralCost)
	}
	return t, nil
}

// Fig12FatTreeSpace regenerates Fig. 12: search space (candidate pairs
// examined) of Sheriff vs the centralized manager on Fat-Tree.
func Fig12FatTreeSpace(seed int64) (*Table, error) {
	results, err := sweepCompare(sim.FatTree, FatTreePods, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Fig. 12",
		Title:   "Search space compare: Sheriff vs centralized manager, Fat-Tree",
		Columns: []string{"pods", "sheriff_space", "central_space"},
	}
	for i, r := range results {
		t.AddRow(float64(FatTreePods[i]), float64(r.SheriffSpace), float64(r.CentralSpace))
	}
	return t, nil
}

// Fig13BcubeCost regenerates Fig. 13: APP vs OPT migration cost on BCube.
func Fig13BcubeCost(seed int64) (*Table, error) {
	results, err := sweepCompare(sim.BCube, BcubeSizes, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Fig. 13",
		Title:   "Output: APP (Sheriff) vs OPT (global optimal) migration cost, BCube",
		Columns: []string{"switches_per_level", "sheriff_cost", "optimal_cost"},
	}
	for i, r := range results {
		t.AddRow(float64(BcubeSizes[i]), r.SheriffCost, r.CentralCost)
	}
	return t, nil
}

// Fig14BcubeSpace regenerates Fig. 14: search space on BCube.
func Fig14BcubeSpace(seed int64) (*Table, error) {
	results, err := sweepCompare(sim.BCube, BcubeSizes, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Fig. 14",
		Title:   "Search space compare: Sheriff vs centralized manager, BCube",
		Columns: []string{"switches_per_level", "sheriff_space", "central_space"},
	}
	for i, r := range results {
		t.AddRow(float64(BcubeSizes[i]), float64(r.SheriffSpace), float64(r.CentralSpace))
	}
	return t, nil
}
