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

// buildBenchParts is what the step benchmarks build on: the populated
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
// Fat-Tree: StepExternal over every VM's reported profile, the profiles
// drawn with the timer stopped. Run with a fixed iteration count for
// before/after comparisons (history length affects per-step cost):
//
//	go test -run - -bench BenchmarkRuntimeStep -benchtime 10x ./internal/runtime/
func BenchmarkRuntimeStep(b *testing.B) {
	benchSteps(b, buildBenchRuntime(b, 48))
}

// benchSteps primes r past the cold-start window — flow routes are
// established and every VM has enough history to extrapolate — then times
// b.N periods of StepExternal. Each period's profiles are drawn from the
// reporters with the timer stopped.
func benchSteps(b *testing.B, r *Runtime) {
	reporters := feed(r)
	for i := 0; i < 15; i++ {
		if _, err := r.StepExternal(reporters.Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		updates := reporters.Next()
		b.StartTimer()
		if _, err := r.StepExternal(updates); err != nil {
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
			if _, err := drive(r).Run(3); err != nil {
				b.Fatal(err)
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
	d := drive(r)
	var prev []traces.Profile
	for i := 0; i < 4; i++ {
		prev = append(prev[:0], r.sh.cur...)
		if _, err := d.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	if len(r.Flows.Flows()) == 0 {
		tb.Fatal("no flows to sync")
	}
	return prev
}

// BenchmarkRuntimeStepShards pins the shard-count scaling of the default
// engine on the same 48-pod fabric.
func BenchmarkRuntimeStepShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run("shards-"+strconv.Itoa(shards), func(b *testing.B) {
			benchSteps(b, buildBenchRuntimeOpts(b, 48, Options{Shards: shards}))
		})
	}
}

// BenchmarkRuntimeStepRecorded is BenchmarkRuntimeStep with an active
// event recorder (no sinks) — the enabled-path cost, to
// compare against the nil-recorder fast path above.
func BenchmarkRuntimeStepRecorded(b *testing.B) {
	r := buildBenchRuntime(b, 48)
	rec, err := obs.New(obs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r.opts.Recorder = rec
	benchSteps(b, r)
}

var snapshotSink []byte

// deepSnapParts builds a BCube fabric of the given size — 8 is the
// BENCHMARK.json bc8-deep-snap fabric — with no VMs on it: what a restore
// starts from.
func deepSnapParts(tb testing.TB, size int) (*dcn.Cluster, *cost.Model) {
	tb.Helper()
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: size})
	if err != nil {
		tb.Fatal(err)
	}
	cluster, err := dcn.NewCluster(bc.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		tb.Fatal(err)
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		tb.Fatal(err)
	}
	return cluster, model
}

// deepSnapRuntime populates that fabric and runs it until every rack's deep
// pool is fitted, fed the way sheriffd feeds it: the VMs' surge streams
// through StepExternal.
func deepSnapRuntime(tb testing.TB, size int) *Runtime {
	tb.Helper()
	cluster, model := deepSnapParts(tb, size)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.5, Seed: 1})
	r, err := New(cluster, model, Options{Seed: 1, Shards: 2, DeepPredict: true,
		Traces: traces.Options{Kind: traces.Surge}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.Close)
	if _, err := drive(r).Run(r.opts.DeepFitAfter + 16); err != nil {
		tb.Fatal(err)
	}
	for rk := range cluster.Racks {
		if !r.DeepReady(rk) {
			tb.Fatalf("rack %d: deep pool not fitted", rk)
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
	r := deepSnapRuntime(b, 8)
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
	snap, err := deepSnapRuntime(b, 8).Snapshot()
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
		cluster, model := deepSnapParts(b, 8)
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
