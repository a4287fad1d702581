package runtime

import (
	"math"
	stdruntime "runtime"
	"strings"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/predictor"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// fedRuntime steps a runtime the way sheriffd does: every period the VMs'
// metric reporters draw one profile each, and StepExternal takes them.
type fedRuntime struct {
	*Runtime
	reporters *traces.Reporters
}

// drive opens r's reporters at its step, each from its trace generator
// (TraceGen).
func drive(r *Runtime) *fedRuntime { return &fedRuntime{r, feed(r)} }

// feed opens the reporters of r's VMs at its step: each VM's stream keyed
// by the rack the engine admitted it on, as sheriffd keys them, so a
// restored runtime's reporters continue its original's.
func feed(r *Runtime) *traces.Reporters {
	admission := make(map[int]int, len(r.sh.vms))
	for i, vm := range r.sh.vms {
		admission[vm.ID] = int(r.sh.rack[i])
	}
	return traces.NewReporters(r.TraceGen(), admission, r.step)
}

// Step advances one period on the reporters' profiles.
func (d *fedRuntime) Step() (StepStats, error) { return d.StepExternal(d.reporters.Next()) }

// Run advances n periods and returns their statistics, oldest first.
func (d *fedRuntime) Run(n int) ([]StepStats, error) {
	out := make([]StepStats, 0, max(n, 0))
	for i := 0; i < n; i++ {
		s, err := d.Step()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func buildRuntime(t *testing.T, pods int, seed int64) *fedRuntime {
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
	return drive(r)
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
	if r.step != 1 {
		t.Fatalf("one Step advanced %d periods", r.step)
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

// TestDeepFitAfterBelowPoolMinimumRefused: a DeepFitAfter shorter than
// the history every deep-pool candidate fits on is refused, naming the
// option; the minimum itself is taken.
func TestDeepFitAfterBelowPoolMinimumRefused(t *testing.T) {
	least := predictor.MinFitLength()
	err := Options{DeepPredict: true, DeepFitAfter: least - 1}.Validate()
	if err == nil || !strings.Contains(err.Error(), "DeepFitAfter") {
		t.Fatalf("DeepFitAfter %d: err = %v, want a refusal naming DeepFitAfter", least-1, err)
	}
	if err := (Options{DeepPredict: true, DeepFitAfter: least}).Validate(); err != nil {
		t.Fatalf("DeepFitAfter %d refused: %v", least, err)
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
