// BCube migration: the Figs. 10/13/14 study on the server-centric BCube
// topology — balancing decay plus the Sheriff-vs-centralized sweep. The
// Sec. V.A k-median view of destination planning is the example of
// internal/centralized's Manager.PlanDestinations.
package main

import (
	"fmt"
	"log"

	"sheriff"
)

func main() {
	// Part 1: balancing on BCube (Fig. 10).
	s, err := sheriff.BuildSimulation(sheriff.SimConfig{Kind: sheriff.BCube, Size: 8, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	s.PopulateSkewed(0.5)
	series, err := s.RunBalancing(24, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BCube(8,1): %d server nodes, stddev %.2f%% -> %.2f%% over 24 rounds\n",
		len(s.Cluster.Racks), series[0], series[len(series)-1])

	// Part 2: Sheriff vs centralized on BCube (Figs. 13–14).
	fmt.Println("\nn   sheriff-cost  central-cost  sheriff-space  central-space")
	for _, n := range []int{4, 8, 12} {
		res, err := sheriff.Compare(sheriff.SimConfig{Kind: sheriff.BCube, Size: n, Seed: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3d %12.1f  %12.1f  %13d  %13d\n",
			n, res.SheriffCost, res.CentralCost, res.SheriffSpace, res.CentralSpace)
	}
}
