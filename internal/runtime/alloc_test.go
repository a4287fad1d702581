package runtime

import (
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// TestStepSteadyStateAllocs gates the sharded predict phase at zero heap
// allocations per step once warm: the per-rack alert buckets, the shard
// round-trip, and the Holt folds all reuse state — and, with DeepPredict
// on and every rack's pool fitted, so does each rack's Predict+Observe
// round, whose candidates forecast into their selector's buffer. Thresholds
// are set so low that every VM alerts every step, keeping the bucket
// high-water marks constant across runs. A deep pool's history grows by
// one value a step on append's schedule, which the deep variant's 500 runs
// amortize to nothing.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		runs int
	}{
		{"holt", Options{}, 50},
		{"deep", Options{DeepPredict: true, DeepFitAfter: 24}, 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			cluster, model := buildParts(t, 4)
			cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: 9})
			opts := c.opts
			opts.Seed, opts.Shards = 9, 4
			opts.Thresholds = alert.Thresholds{CPU: 1e-12, Mem: 1e-12, IO: 1e-12, TRF: 1e-12}
			r, err := New(cluster, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Warm until every append capacity has reached its steady
			// state, and every deep pool is fitted and has forecast.
			for i := 0; i < opts.DeepFitAfter+10; i++ {
				if _, err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if opts.DeepPredict {
				for rk := range cluster.Racks {
					if !r.DeepReady(rk) {
						t.Fatalf("rack %d has no fitted deep pool after warm-up", rk)
					}
				}
			}

			var stats StepStats
			allocs := testing.AllocsPerRun(c.runs, func() {
				stats = StepStats{}
				r.shardedPredictPhase(&stats, r.opts.Recorder, false)
			})
			if allocs != 0 {
				t.Fatalf("sharded predict phase allocates %.1f objects/step in steady state, want 0", allocs)
			}
			if stats.ServerAlerts == 0 {
				t.Fatal("gate ran without raising any alerts — thresholds did not bite")
			}
		})
	}
}

// TestFlowSyncSteadyStateAllocs gates phase 2 at zero heap allocations per
// period while G_d stands still: the scatter writes the edge table in
// place, the reconcile walks it, and the table is not rebuilt. Each run
// syncs against the other of two periods' profiles, so every flow is
// re-rated and none is admitted or removed.
func TestFlowSyncSteadyStateAllocs(t *testing.T) {
	cluster, model := equivParts(t, 9)
	r, err := New(cluster, model, Options{Seed: 9, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	other := alternateProfiles(t, r)
	table, flows := &r.sh.edges[0], r.Flows.Flows()
	rates := make([]float64, len(flows))
	for i, f := range flows {
		rates[i] = f.Rate
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.sh.cur, other = other, r.sh.cur
		r.syncFlows()
	})
	if allocs != 0 {
		t.Fatalf("flow sync allocates %.1f objects/period in steady state, want 0", allocs)
	}
	if &r.sh.edges[0] != table {
		t.Fatal("flow sync rebuilt the edge table though G_d did not change")
	}
	// 51 runs, an odd number of swaps: the plane carries the other period.
	after := r.Flows.Flows()
	if len(after) != len(flows) {
		t.Fatalf("%d flows after the runs, %d before: the gate admitted or removed some", len(after), len(flows))
	}
	rerated := 0
	for i, f := range after {
		if f != flows[i] {
			t.Fatalf("flow %d was replaced under a steady placement", f.ID)
		}
		if f.Rate != rates[i] {
			rerated++
		}
	}
	if rerated == 0 {
		t.Fatal("no flow was re-rated; the gate did not sync anything")
	}
}

// TestCalmPeriodRescansNothing: on a calm fabric — a leaf-spine with
// no cross-rack dependency, so no flow, and thresholds no forecast reaches,
// so no alert and no migration — a period writes no link load and moves no
// VM, so it rescans no node's utilization maxima and sums no host's
// workload, driven by the generators or by external profiles. The first
// period scans every node once: the check that the counters are live.
func TestCalmPeriodRescansNothing(t *testing.T) {
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 24})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ls.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 4, MinCapacity: 5, MaxCapacity: 20, Seed: 5})
	model, err := cost.NewDeferred(cluster, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(cluster, model, Options{Seed: 5, Shards: 3, Traces: traces.Options{Kind: traces.Lite},
		Thresholds: alert.Thresholds{CPU: 2, Mem: 2, IO: 2, TRF: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Flows.Rescans(), ls.Graph.NumNodes(); got != want {
		t.Fatalf("first period rescanned %d nodes, want every node (%d)", got, want)
	}
	if got, want := cluster.HostSums(), len(cluster.Hosts()); got != want {
		t.Fatalf("first period summed %d hosts, want every host (%d)", got, want)
	}
	updates := make([]ExternalUpdate, 0, 8)
	for _, vm := range cluster.VMs()[:8] {
		updates = append(updates, ExternalUpdate{VM: vm.ID, Profile: traces.Profile{CPU: 0.3, Mem: 0.2, IO: 0.1, TRF: 0.1}})
	}
	rescanned, sums := r.Flows.Rescans(), cluster.HostSums()
	for i := 0; i < 12; i++ {
		var st *StepStats
		if i%2 == 0 {
			st, err = r.Step()
		} else {
			st, err = r.StepExternal(updates)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.ServerAlerts+st.ToRAlerts+st.SwitchAlerts+st.Migrations != 0 || len(r.Flows.Flows()) != 0 {
			t.Fatalf("period %d is not calm: %+v, %d flows", st.Step, *st, len(r.Flows.Flows()))
		}
		if got := r.Flows.Rescans() - rescanned; got != 0 {
			t.Fatalf("calm period %d rescanned %d nodes, want 0", st.Step, got)
		}
		if got := cluster.HostSums() - sums; got != 0 {
			t.Fatalf("calm period %d summed %d hosts, want 0", st.Step, got)
		}
	}
}
