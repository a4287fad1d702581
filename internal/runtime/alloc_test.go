package runtime

import (
	"fmt"
	"slices"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/alloctest"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/ingest"
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
	}{
		{"holt", Options{}},
		{"deep", Options{DeepPredict: true, DeepFitAfter: 24}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cluster, model := buildParts(t, 4)
			cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: 9})
			opts := c.opts
			opts.Seed, opts.Shards = 9, 4
			opts.Thresholds = alert.Thresholds{CPU: 1e-12, Mem: 1e-12, IO: 1e-12, TRF: 1e-12}
			built, err := New(cluster, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer built.Close()
			r := drive(built)
			// Warm until every append capacity has reached its steady
			// state, and every deep pool is fitted and has forecast.
			if _, err := r.Run(opts.DeepFitAfter + 10); err != nil {
				t.Fatal(err)
			}
			if opts.DeepPredict {
				for rk := range cluster.Racks {
					if !r.DeepReady(rk) {
						t.Fatalf("rack %d has no fitted deep pool after warm-up", rk)
					}
				}
			}

			var stats StepStats
			alloctest.Count(t, "predict", func() {
				stats = StepStats{}
				r.shardedPredictPhase(&stats, r.opts.Recorder)
			})
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
	alloctest.Count(t, "sync", func() {
		r.sh.cur, other = other, r.sh.cur
		r.syncFlows()
	})
	if &r.sh.edges[0] != table {
		t.Fatal("flow sync rebuilt the edge table though G_d did not change")
	}
	// 51 runs, a warm-up and the record's 50, an odd number of swaps: the
	// plane carries the other period.
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
// workload, fed every VM's reporter stream or a few made-up profiles. The
// first period scans every node once: the check that the counters are live.
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
	built, err := New(cluster, model, Options{Seed: 5, Shards: 3, Traces: traces.Options{Kind: traces.Lite},
		Thresholds: alert.Thresholds{CPU: 2, Mem: 2, IO: 2, TRF: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	r := drive(built)
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
		var st StepStats
		if i%2 == 0 {
			st, err = r.Step()
		} else {
			st, err = r.StepExternal(updates)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.ServerAlerts+st.ToRAlerts+st.SwitchAlerts+st.Migrations != 0 || len(r.Flows.Flows()) != 0 {
			t.Fatalf("period %d is not calm: %+v, %d flows", st.Step, st, len(r.Flows.Flows()))
		}
		if got := r.Flows.Rescans() - rescanned; got != 0 {
			t.Fatalf("calm period %d rescanned %d nodes, want 0", st.Step, got)
		}
		if got := cluster.HostSums() - sums; got != 0 {
			t.Fatalf("calm period %d summed %d hosts, want 0", st.Step, got)
		}
	}
}

// TestSnapshotAllocsFlatInFabric: a warm Runtime.Snapshot with every
// rack's deep pool fitted allocates as many objects on a BCube-8 (64
// racks) as on a BCube-4 (16), whatever the VMs, flows and links: the
// runtime's int and packed arenas, the object holding the snapshot, its
// trace options and deep section, the deep models list and the flow pairs
// (five), the cluster's section (six) and the network's (four). Each
// section carves its columns from one array per element kind, each rack's
// pool appends to one shape and one state buffer the runtime keeps, and
// shares the parameters packed at its fit.
func TestSnapshotAllocsFlatInFabric(t *testing.T) {
	for _, size := range []int{4, 8} {
		r := deepSnapRuntime(t, size)
		if _, err := r.Snapshot(); err != nil { // grow the runtime's buffers
			t.Fatal(err)
		}
		alloctest.Count(t, fmt.Sprintf("bcube%d", size), func() {
			if _, err := r.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotWindowAllocs is the snapshotting daemon's window gate: on a
// BCube-4 deep surge fabric, fed and stepped the way sheriffd steps it, with
// Runtime.Snapshot and ingest.Service.Snapshot taken every 8th period as
// -snapshot-every 8 takes them (the encode and the write left out), a
// window of periods that still migrate and reroute allocates no more than
// the snapshots' own columns: its bound in testdata/allocs.golden is its
// 32 snapshots × the warm counts of TestSnapshotAllocsFlatInFabric and
// ingest's TestSnapshotAllocsFlatInRacks.
// Routes and shims are built from storage that is kept, so once the fabric
// has built every rack's shim and fitted every rack's pool, and set its
// high-water marks (see TestPeriodAllocatesNothing), the snapshots are all
// that allocates, the deep pools' staging buffers having grown at a
// snapshot before the window. One shard, for the reason given there.
func TestSnapshotWindowAllocs(t *testing.T) {
	const settle, periods, every = 512, 256, 8
	if periods/every != 32 {
		t.Fatal("the window's bound in testdata/allocs.golden counts 32 snapshots")
	}
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cluster, model := deepSnapParts(t, 4)
			cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20,
				DependencyProb: 0.5, CrossRackDependencyProb: 0.5, Seed: seed})
			r, err := New(cluster, model, Options{Seed: seed, Shards: 1, DeepPredict: true,
				Traces: traces.Options{Kind: traces.Surge}})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			svc, err := ingest.FromCluster(cluster, ingest.Options{Mode: ingest.TriageQuant})
			if err != nil {
				t.Fatal(err)
			}
			reporters := feed(r)
			var st StepStats
			migrations, reroutes := 0, 0
			period := func() {
				updates := reporters.Next()
				if _, err := svc.OfferBatch(updates); err != nil {
					t.Fatal(err)
				}
				svc.ProcessPending()
				svc.Poll()
				if st, err = r.StepExternal(updates); err != nil {
					t.Fatal(err)
				}
				migrations += st.Migrations
				reroutes += st.Reroutes
			}
			warm := 0
			for ; slices.Contains(r.shims, nil) || slices.Contains(r.deep, nil); warm++ {
				if warm == 4000 {
					t.Fatal("some rack's shim was never built or its pool never fitted")
				}
				period()
			}
			for i := 0; i < settle; i++ {
				period()
			}
			if _, err := r.Snapshot(); err != nil { // grow the deep pools' staging buffers
				t.Fatal(err)
			}

			migrations, reroutes = 0, 0
			alloctest.Count(t, "periods", func() {
				for i := 1; i <= periods; i++ {
					period()
					if i%every != 0 {
						continue
					}
					if _, err := r.Snapshot(); err != nil {
						t.Fatal(err)
					}
					if _, err := svc.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Logf("shims and pools ready after %d periods; %d periods from period %d on: %d migrations, %d reroutes",
				warm, periods, warm+settle, migrations, reroutes)
			if migrations == 0 || reroutes == 0 {
				t.Fatalf("%d migrations, %d reroutes: the window does not exercise the routes and the shims", migrations, reroutes)
			}
		})
	}
}

// TestPeriodAllocatesNothing is the whole-period allocation gate: on a
// Fat-Tree 8 surge fabric, a daemon period — the reporters' draw, the
// ingest offer, drain and poll, then StepExternal — allocates nothing,
// counted over consecutive periods rather than averaged per run. It holds
// the per-layer gates' promises together: one management workspace for
// every shim, recycled flow records and routes, the alert buckets and
// Poll's slice sized at build, and StepStats returned by value.
//
// Memory that grows to a high-water mark — the most flows ever live, the
// largest matching, the most reroute sources — still grows while the
// fabric sets new marks, so the fabric warms until every rack's shim
// exists and then for settleAfterShims periods more; the surge is stormy
// (short regimes, twice the amplitude) so that its marks are set early and
// the counted periods still migrate and reroute. The engine runs one shard:
// a blocking channel hand-off between shard workers can make the Go
// runtime allocate for itself, which no change to this program could
// remove.
func TestPeriodAllocatesNothing(t *testing.T) {
	const periods, settleAfterShims = 128, 1024
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cluster, _ := buildParts(t, 8)
			cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20,
				DependencyProb: 0.5, CrossRackDependencyProb: 0.5, Seed: seed})
			model, err := cost.NewDeferred(cluster, cost.PaperParams())
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(cluster, model, Options{Seed: seed, Shards: 1, Traces: traces.Options{Kind: traces.Surge,
				Surge: traces.SurgeParams{MeanDwell: 20, Intensity: 2}}})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			svc, err := ingest.FromCluster(cluster, ingest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reporters := feed(r)
			var st StepStats
			alerts := 0
			period := func() {
				updates := reporters.Next()
				if _, err := svc.OfferBatch(updates); err != nil {
					t.Fatal(err)
				}
				svc.ProcessPending()
				alerts += len(svc.Poll())
				if st, err = r.StepExternal(updates); err != nil {
					t.Fatal(err)
				}
			}
			warm := 0
			for ; slices.Contains(r.shims, nil); warm++ {
				if warm == 4000 {
					t.Fatal("some rack's shim was never built; the fabric does not alert everywhere")
				}
				period()
			}
			for i := 0; i < settleAfterShims; i++ {
				period()
			}

			alerts = 0
			migrations, reroutes := 0, 0
			alloctest.Count(t, "periods", func() {
				for i := 0; i < periods; i++ {
					period()
					migrations += st.Migrations
					reroutes += st.Reroutes
				}
			})
			t.Logf("every shim built after %d periods; %d periods from period %d on: %d pre-alerts, %d migrations, %d reroutes",
				warm, periods, warm+settleAfterShims, alerts, migrations, reroutes)
			if migrations == 0 || reroutes == 0 || alerts == 0 {
				t.Fatalf("%d pre-alerts, %d migrations, %d reroutes: the periods do not exercise every layer", alerts, migrations, reroutes)
			}
		})
	}
}
