package centralized_test

import (
	"fmt"
	"log"

	"sheriff/internal/centralized"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/kmedian"
	"sheriff/internal/migrate"
	"sheriff/internal/topology"
)

// ExampleManager_PlanDestinations takes the Sec. V.A k-median view on a
// BCube(6,1): choose 3 destination nodes for the alerted source nodes,
// with the 3+2/p local-search guarantee, then migrate one VM along the
// planned assignment.
func ExampleManager_PlanDestinations() {
	b, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 6})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := dcn.NewCluster(b.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		log.Fatal(err)
	}
	// The paper's cost constants: C_r=100, δ=η=1, C_d=1.
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		log.Fatal(err)
	}
	mgr := centralized.New(cluster, model)
	sources := []int{0, 7, 14, 21, 28}
	sol, err := mgr.PlanDestinations(sources, 3, 2, false, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-median destinations for sources %v: open %v, cost %.1f (guarantee %.2f×OPT)\n",
		sources, sol.Open, sol.Cost, kmedian.ApproximationRatio(2))

	// Pick a source whose assigned median is another node.
	pick := 0
	for i, srcIdx := range sources {
		if sol.Assignment[i] != srcIdx {
			pick = i
			break
		}
	}
	src := cluster.Racks[sources[pick]]
	vm, err := cluster.AddVM(src.Hosts[0], 15, 1, false)
	if err != nil {
		log.Fatal(err)
	}
	dst := cluster.Racks[sol.Assignment[pick]]
	res, err := migrate.Migrate(cluster, model, []*dcn.VM{vm}, dst.Hosts, migrate.MigrationOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range res.Migrations {
		fmt.Printf("moved %s from node %d to node %d at cost %.2f\n",
			m.VM.Name, src.Index, dst.Index, m.Cost)
	}
	// Output:
	// k-median destinations for sources [0 7 14 21 28]: open [0 7 14], cost 252.0 (guarantee 4.00×OPT)
	// moved vm-0 from node 21 to node 7 at cost 137.00
}
