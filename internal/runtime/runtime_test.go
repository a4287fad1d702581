package runtime

import (
	"math"
	stdruntime "runtime"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/timeseries"
	"sheriff/internal/topology"
)

func buildRuntime(t *testing.T, pods int, seed int64) *Runtime {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(cluster, model, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEwmaTrendForecast(t *testing.T) {
	f := holtCoeff
	// A perfect linear ramp should be extrapolated upward.
	h := timeseries.FromFunc(20, func(t int) float64 { return float64(t) })
	out, err := f.ForecastFrom(nil, h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] <= h.Last() {
		t.Fatalf("trend forecast %v should exceed last value %v", out[0], h.Last())
	}
	if out[1] <= out[0] {
		t.Fatal("multi-step trend should keep rising")
	}
	if _, err := f.ForecastFrom(nil, timeseries.New(nil), 1); err == nil {
		t.Fatal("empty history accepted")
	}
}

func TestRuntimeStepProducesStats(t *testing.T) {
	r := buildRuntime(t, 4, 1)
	stats, err := r.Step()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Step != 0 {
		t.Fatalf("first step index = %d", stats.Step)
	}
	if stats.WorkloadStdDev < 0 {
		t.Fatal("negative stddev")
	}
	if len(r.History()) != 1 {
		t.Fatalf("history length = %d", len(r.History()))
	}
}

func TestRuntimeRunMultipleSteps(t *testing.T) {
	r := buildRuntime(t, 4, 2)
	hist, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 10 {
		t.Fatalf("history = %d steps", len(hist))
	}
	for i, s := range hist {
		if s.Step != i {
			t.Fatalf("step %d has index %d", i, s.Step)
		}
	}
}

func TestRuntimeEventuallyAlertsAndMigrates(t *testing.T) {
	r := buildRuntime(t, 4, 3)
	hist, err := r.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	totalAlerts, totalMigrations := 0, 0
	for _, s := range hist {
		totalAlerts += s.ServerAlerts + s.ToRAlerts + s.SwitchAlerts
		totalMigrations += s.Migrations
	}
	if totalAlerts == 0 {
		t.Fatal("60 steps produced no alerts at all")
	}
	if totalMigrations == 0 {
		t.Fatal("alerts never led to a migration")
	}
}

func TestRuntimeFlowsFollowDependencies(t *testing.T) {
	r := buildRuntime(t, 4, 4)
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	// Every flow must connect racks that actually host a dependent pair.
	for _, f := range r.Flows.Flows() {
		if f.Src == f.Dst {
			t.Fatal("intra-rack flow created")
		}
		if f.Rate <= 0 {
			t.Fatal("non-positive flow rate")
		}
	}
	// Cross-rack dependencies exist in this populated cluster, so some
	// flows must exist.
	crossRack := 0
	for _, vm := range r.Cluster.VMs() {
		for _, p := range r.Cluster.Deps.Peers(vm.ID) {
			peer := r.Cluster.VM(p)
			if peer != nil && peer.Host().Rack() != vm.Host().Rack() {
				crossRack++
			}
		}
	}
	if crossRack > 0 && len(r.Flows.Flows()) == 0 {
		t.Fatal("cross-rack dependencies produced no flows")
	}
}

func TestRuntimeDeterministicWithSeed(t *testing.T) {
	a := buildRuntime(t, 4, 5)
	b := buildRuntime(t, 4, 5)
	ha, err := a.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ha {
		// Wall-clock phase timings are not deterministic; everything else
		// must match bit-for-bit.
		ha[i].Timings, hb[i].Timings = PhaseTimings{}, PhaseTimings{}
		if ha[i] != hb[i] {
			t.Fatalf("step %d diverged: %+v vs %+v", i, ha[i], hb[i])
		}
	}
}

func TestRuntimeConservesVMs(t *testing.T) {
	r := buildRuntime(t, 4, 6)
	before := len(r.Cluster.VMs())
	total := 0.0
	for _, vm := range r.Cluster.VMs() {
		total += vm.Capacity
	}
	if _, err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	if len(r.Cluster.VMs()) != before {
		t.Fatal("VMs appeared or vanished")
	}
	after := 0.0
	for _, h := range r.Cluster.Hosts() {
		after += h.Used()
	}
	if math.Abs(after-total) > 1e-6 {
		t.Fatalf("capacity not conserved: %v -> %v", total, after)
	}
}

func TestRuntimeHostsNeverOversubscribed(t *testing.T) {
	r := buildRuntime(t, 4, 7)
	if _, err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	for _, h := range r.Cluster.Hosts() {
		if h.Used() > h.Capacity+1e-9 {
			t.Fatalf("host %d oversubscribed: %v/%v", h.ID, h.Used(), h.Capacity)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Thresholds.CPU != 0.9 || o.DeepFitAfter != 48 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.FlowRate(0.5) <= 0 {
		t.Fatal("default flow rate non-positive")
	}
}

// TestDefaultShardsFollowGOMAXPROCS: the default shard count is the
// scheduler's parallelism, like the shared pool's size, not the host's core
// count — a daemon held to GOMAXPROCS=1 runs one shard worker.
func TestDefaultShardsFollowGOMAXPROCS(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	r := buildRuntime(t, 4, 1)
	defer r.Close()
	if r.sh.n != 1 {
		t.Fatalf("default options under GOMAXPROCS(1) built %d shards, want 1", r.sh.n)
	}
}

// TestRuntimeStepConcurrencyManyRacks drives the parallel phase-1 fan-out
// across a fabric with many racks for enough steps to cross the alert
// thresholds, so `go test -race` exercises the worker-pool distribution,
// the shared Dijkstra sweeps, and the coordinator fan-outs together.
func TestRuntimeStepConcurrencyManyRacks(t *testing.T) {
	r := buildRuntime(t, 4, 9) // 4-pod Fat-Tree: 8 racks
	if len(r.Cluster.Racks) < 3 {
		t.Fatalf("topology has %d racks, want >= 3", len(r.Cluster.Racks))
	}
	if _, err := r.Run(25); err != nil {
		t.Fatal(err)
	}
	sums := r.PhaseSummaries()
	for _, phase := range []string{"predict", "flows", "congestion", "manage"} {
		s, ok := sums[phase]
		if !ok || s.Count() != 25 {
			t.Fatalf("phase %q timing summary missing or incomplete: %+v", phase, sums)
		}
	}
}

// TestTrendStateMatchesEwmaTrend pins the incremental per-component
// forecaster to the cold ewmaTrend recursion: continuing from cached
// (level, trend) over an appended suffix must be bit-exact with a full
// recompute at every step.
func TestTrendStateMatchesEwmaTrend(t *testing.T) {
	cold := holtCoeff
	warm := &trendState{ewmaTrend: cold}
	h := timeseries.New([]float64{3})
	for step := 0; step < 50; step++ {
		w, err := warm.ForecastFrom(nil, h, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cold.ForecastFrom(nil, h, 2)
		if err != nil {
			t.Fatal(err)
		}
		if w[0] != c[0] || w[1] != c[1] {
			t.Fatalf("step %d: warm %v != cold %v", step, w, c)
		}
		h.Append(3 + 0.5*float64(step) + math.Sin(float64(step)))
	}
	// A rewritten history (different last value at the cached position)
	// must reset the cache rather than continue from stale state.
	h2 := timeseries.New([]float64{100, 90, 80})
	w, err := warm.ForecastFrom(nil, h2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cold.ForecastFrom(nil, h2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != c[0] {
		t.Fatalf("after history swap: warm %v != cold %v", w[0], c[0])
	}
}
