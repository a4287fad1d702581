package runtime

import (
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// buildHotRuntime builds a runtime whose flows saturate the fabric, so
// hot-switch machinery has something to detect: a tiny Fat-Tree with many
// cross-rack dependencies and high flow rates.
func buildHotRuntime(t *testing.T, opts Options) *fedRuntime {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{
		VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 15,
		DependencyProb: 0.6, CrossRackDependencyProb: 0.8, Seed: opts.Seed,
	})
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	// Saturating flow rates.
	opts.FlowRate = func(trf float64) float64 { return 0.5 + 0.5*trf }
	r, err := New(cluster, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return drive(r)
}

func TestRerouteReducesHotSwitchesVsDisabled(t *testing.T) {
	on := buildHotRuntime(t, Options{Seed: 12})
	off := buildHotRuntime(t, Options{Seed: 12, DisableReroute: true})
	hOn, err := on.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	hOff, err := off.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	hotOn, hotOff, reroutes := 0, 0, 0
	for i := range hOn {
		hotOn += hOn[i].HotSwitches
		hotOff += hOff[i].HotSwitches
		reroutes += hOn[i].Reroutes
	}
	if reroutes == 0 {
		t.Skip("fabric never hot enough to exercise reroute at this seed")
	}
	if hotOn > hotOff {
		t.Fatalf("rerouting increased hot-switch exposure: %d vs %d", hotOn, hotOff)
	}
}

func TestDisableRerouteNeverMovesFlows(t *testing.T) {
	r := buildHotRuntime(t, Options{Seed: 13, DisableReroute: true})
	hist, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range hist {
		if s.Reroutes != 0 {
			t.Fatalf("reroute happened despite DisableReroute: %+v", s)
		}
	}
}
