package runtime

import (
	"encoding/json"
	"strconv"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/obs"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// buildBenchRuntime assembles the 48-pod Fat-Tree runtime used by
// BenchmarkRuntimeStep: 1152 racks, 2304 hosts, 6912 VMs. Thresholds are
// set above the normalized profile range so the benchmark isolates the
// per-step prediction hot path (phase 1 plus the per-rack queue monitors);
// management is exercised by the figure benches at the repo root.
func buildBenchRuntime(b *testing.B, pods int) *Runtime {
	return buildBenchRuntimeOpts(b, pods, Options{})
}

func buildBenchRuntimeOpts(b *testing.B, pods int, opts Options) *Runtime {
	b.Helper()
	cluster, model, opts := buildBenchParts(b, pods, opts)
	r, err := New(cluster, model, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	return r
}

// buildBenchParts is what both engines are built from: the populated
// fabric, its cost model, and the benchmark's seed and thresholds in opts.
func buildBenchParts(b *testing.B, pods int, opts Options) (*dcn.Cluster, *cost.Model, Options) {
	b.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		b.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: 42})
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	opts.Seed = 42
	opts.Thresholds.CPU, opts.Thresholds.Mem, opts.Thresholds.IO, opts.Thresholds.TRF = 2, 2, 2, 2
	return cluster, model, opts
}

// BenchmarkRuntimeStep measures one collection period T on a 48-pod
// Fat-Tree. Run with a fixed iteration count for before/after comparisons
// (history length affects per-step cost):
//
//	go test -run - -bench BenchmarkRuntimeStep -benchtime 10x ./internal/runtime/
func BenchmarkRuntimeStep(b *testing.B) {
	r := buildBenchRuntime(b, 48)
	// Prime past the cold-start window: flow routes are established and
	// every VM has enough history to extrapolate.
	for i := 0; i < 15; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowShard is phase 2's scatter alone — every shard's run of
// the edge table, each dependency pair filled in once — on the 16-pod
// Fat-Tree of the ft16-surge workload (128 racks, 768 VMs): with the
// populated dependency graph, and with none, where the table is empty and
// the scatter does nothing (the ls1000-calm shape).
func BenchmarkFlowShard(b *testing.B) {
	for _, deps := range []bool{true, false} {
		name := "deps"
		if !deps {
			name = "no-deps"
		}
		b.Run(name, func(b *testing.B) {
			cluster, model, opts := buildBenchParts(b, 16, Options{})
			if !deps {
				for _, vm := range cluster.VMs() {
					cluster.Deps.RemoveVM(vm.ID)
				}
			}
			r, err := New(cluster, model, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(r.Close)
			for i := 0; i < 3; i++ {
				if _, err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < r.sh.n; s++ {
					r.flowShard(s)
				}
			}
			b.ReportMetric(float64(len(r.sh.edges)), "pairs")
		})
	}
}

// BenchmarkFlowSync is all of phase 2 in steady state on the same 16-pod
// Fat-Tree: the scatter as a shard round plus the reconcile, which re-rates
// every flow — the VMs' profiles alternate between two periods' — and
// admits or removes none:
//
//	go test -run - -bench BenchmarkFlowSync -benchmem ./internal/runtime/
func BenchmarkFlowSync(b *testing.B) {
	cluster, model, opts := buildBenchParts(b, 16, Options{})
	r, err := New(cluster, model, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	other := alternateProfiles(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sh.cur, other = other, r.sh.cur
		r.syncFlows()
	}
	b.ReportMetric(float64(len(r.Flows.Flows())), "flows")
}

// alternateProfiles warms r up and returns a copy of its VMs' profiles one
// period before the current ones: syncing the traffic plane on each in turn
// re-rates flows without moving any.
func alternateProfiles(tb testing.TB, r *Runtime) []traces.Profile {
	tb.Helper()
	var prev []traces.Profile
	for i := 0; i < 4; i++ {
		prev = append(prev[:0], r.sh.cur...)
		if _, err := r.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	if len(r.Flows.Flows()) == 0 {
		tb.Fatal("no flows to sync")
	}
	return prev
}

// BenchmarkRuntimeStepReference is BenchmarkRuntimeStep on the seed
// engine (reference_test.go) — the "before" side of the sharded-engine
// speedup and allocation comparison.
func BenchmarkRuntimeStepReference(b *testing.B) {
	r, err := newReference(buildBenchParts(b, 48, Options{}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeStepShards pins the shard-count scaling of the default
// engine on the same 48-pod fabric.
func BenchmarkRuntimeStepShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run("shards-"+strconv.Itoa(shards), func(b *testing.B) {
			r := buildBenchRuntimeOpts(b, 48, Options{Shards: shards})
			for i := 0; i < 15; i++ {
				if _, err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuntimeStepRecorded is BenchmarkRuntimeStep with an active
// event recorder (in-memory ring, no sinks) — the enabled-path cost, to
// compare against the nil-recorder fast path above.
func BenchmarkRuntimeStepRecorded(b *testing.B) {
	r := buildBenchRuntime(b, 48)
	rec, err := obs.New(obs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r.opts.Recorder = rec
	for i := 0; i < 15; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

var snapshotSink []byte

// deepSnapParts builds the BENCHMARK.json bc8-deep-snap fabric (BCube-8)
// with no VMs on it: what a restore starts from.
func deepSnapParts(b *testing.B) (*dcn.Cluster, *cost.Model) {
	b.Helper()
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 8})
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := dcn.NewCluster(bc.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		b.Fatal(err)
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	return cluster, model
}

// deepSnapRuntime populates that fabric and runs it until every rack's deep
// pool is fitted, fed the way sheriffd feeds it — the VMs' surge streams
// through StepExternal — so the runtime opens no trace source of its own
// and restoring its snapshot replays none.
func deepSnapRuntime(b *testing.B) *Runtime {
	b.Helper()
	cluster, model := deepSnapParts(b)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.5, Seed: 1})
	r, err := New(cluster, model, Options{Seed: 1, Shards: 2, DeepPredict: true,
		Traces: traces.Options{Kind: traces.Surge}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	vms := cluster.VMs()
	srcs := make([]traces.Source, len(vms))
	for i, vm := range vms {
		srcs[i] = r.TraceGen().Source(vm.ID, vm.Host().Rack().Index)
	}
	updates := make([]ExternalUpdate, len(vms))
	for step := 0; step < r.opts.DeepFitAfter+16; step++ {
		for i, vm := range vms {
			updates[i] = ExternalUpdate{VM: vm.ID, Profile: srcs[i].Next()}
		}
		if _, err := r.StepExternal(updates); err != nil {
			b.Fatal(err)
		}
	}
	for rk := range cluster.Racks {
		if !r.DeepReady(rk) {
			b.Fatalf("rack %d: deep pool not fitted", rk)
		}
	}
	return r
}

// BenchmarkSnapshotDeep measures what a snapshotting daemon's loop stalls
// for on the runtime's side: Snapshot() plus json.Marshal of the result,
// with MB/s over the document's bytes:
//
//	go test -run - -bench 'Benchmark(Snapshot|Restore)Deep' -benchtime 20x -benchmem ./internal/runtime/
func BenchmarkSnapshotDeep(b *testing.B) {
	r := deepSnapRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := r.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if snapshotSink, err = json.Marshal(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(snapshotSink)))
}

// BenchmarkRestoreDeep is the way back: json.Unmarshal of that document
// plus the cluster's and the runtime's Restore, what a restart pays before
// its first period. Building the empty fabric is off the clock.
func BenchmarkRestoreDeep(b *testing.B) {
	snap, err := deepSnapRuntime(b).Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster, model := deepSnapParts(b)
		b.StartTimer()
		var loaded Snapshot
		if err := json.Unmarshal(doc, &loaded); err != nil {
			b.Fatal(err)
		}
		if err := cluster.Restore(loaded.Cluster); err != nil {
			b.Fatal(err)
		}
		r, err := Restore(cluster, model, Options{Shards: 2, DeepPredict: true}, &loaded)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}
