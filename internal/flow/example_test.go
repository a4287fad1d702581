package flow_test

import (
	"fmt"
	"log"
	"slices"

	"sheriff/internal/flow"
	"sheriff/internal/topology"
)

// ExampleNetwork_RerouteAroundHot loads one aggregation switch of a
// Fat-Tree past 90% and steers the conflict flows around it
// (FLOWREROUTE). The residual bandwidth the flows leave behind feeds the
// migration cost model (B(e) in Eqn. 1).
func ExampleNetwork_RerouteAroundHot() {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
	if err != nil {
		log.Fatal(err)
	}
	net := flow.NewNetwork(ft.Graph)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[0][1]
	for i := 0; i < 3; i++ {
		if _, err := net.AddFlow(src, dst, 0.5, i == 0); err != nil {
			log.Fatal(err)
		}
	}
	// HotSwitches returns the network's scratch; keep a copy past the
	// next call.
	hot := slices.Clone(net.HotSwitches(0.9))
	fmt.Printf("hot switches before reroute: %v\n", names(ft.Graph, hot))
	for _, sw := range hot {
		moved := net.RerouteAroundHot(sw, 0.9)
		fmt.Printf("rerouted %d flows around %s (delay-sensitive flows stay)\n",
			len(moved), ft.Graph.Node(sw).Name)
		for _, f := range moved {
			fmt.Printf("  flow %d now via %v\n", f.ID, names(ft.Graph, f.Path()))
		}
	}
	fmt.Printf("hot switches after reroute: %v\n", names(ft.Graph, net.HotSwitches(0.9)))

	net.UpdateGraphBandwidth()
	e, _ := ft.Graph.EdgeBetween(src, hot[0])
	fmt.Printf("residual bandwidth on the hot uplink: %.2f of %.2f\n", e.Bandwidth, e.Capacity)
	// Output:
	// hot switches before reroute: [agg-0-0]
	// rerouted 1 flows around agg-0-0 (delay-sensitive flows stay)
	//   flow 2 now via [tor-0-0 agg-0-1 tor-0-1]
	// hot switches after reroute: [agg-0-1]
	// residual bandwidth on the hot uplink: 0.50 of 1.00
}

func names(g *topology.Graph, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id).Name
	}
	return out
}
