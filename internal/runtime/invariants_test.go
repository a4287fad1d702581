package runtime

import (
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// TestInvariantsHoldThroughSurgeRun drives the product loop — forecasts,
// alerts, migrations, flow admission, FLOWREROUTE — for 256 surge periods and
// calls Runtime.CheckInvariants (the cluster's and the traffic plane's)
// after every step, at one shard and at two. A run in which no flow was
// rerouted or no VM migrated checked nothing, and fails.
func TestInvariantsHoldThroughSurgeRun(t *testing.T) {
	// Hosts a rack and VMs a host are sheriffd's defaults on BCube, where
	// every period reroutes; a Fat-Tree's switches run hot only when denser.
	for _, fab := range []struct {
		name        string
		build       func() (*topology.Graph, error)
		hosts, perH int
	}{
		{"fat-tree-8", func() (*topology.Graph, error) {
			ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
			return ft.Graph, err
		}, 4, 4},
		{"bcube-8", func() (*topology.Graph, error) {
			bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 8})
			return bc.Graph, err
		}, 2, 3},
	} {
		name := fab.name
		for _, shards := range []int{1, 2} {
			g, err := fab.build()
			if err != nil {
				t.Fatal(err)
			}
			cluster, err := dcn.NewCluster(g, dcn.Config{HostsPerRack: fab.hosts, HostCapacity: 100, ToRCapacity: 100 * float64(fab.hosts)})
			if err != nil {
				t.Fatal(err)
			}
			cluster.Populate(dcn.PopulateOptions{VMsPerHost: fab.perH, MinCapacity: 5, MaxCapacity: 20,
				DependencyProb: 0.5, CrossRackDependencyProb: 0.5, Seed: 1})
			model, err := cost.New(cluster, cost.PaperParams())
			if err != nil {
				t.Fatal(err)
			}
			built, err := New(cluster, model, Options{Seed: 1, Shards: shards,
				Traces: traces.Options{Kind: traces.Surge}})
			if err != nil {
				t.Fatal(err)
			}
			r := drive(built)
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("%s shards=%d before the first step: %v", name, shards, err)
			}
			reroutes, migrations := 0, 0
			for step := 1; step <= 256; step++ {
				s, err := r.Step()
				if err != nil {
					t.Fatal(err)
				}
				reroutes += s.Reroutes
				migrations += s.Migrations
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("%s shards=%d after step %d: %v", name, shards, step, err)
				}
			}
			r.Close()
			if reroutes == 0 || migrations == 0 {
				t.Fatalf("%s shards=%d: %d reroutes, %d migrations: the run did not exercise both remedies", name, shards, reroutes, migrations)
			}
			searches, settled := r.Flows.SearchStats()
			t.Logf("%s shards=%d: %d reroutes, %d migrations, %d route searches settling %d nodes; invariants held after each of 256 steps",
				name, shards, reroutes, migrations, searches, settled)
		}
	}
}
