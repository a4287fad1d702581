package runtime

import (
	"bytes"
	"encoding/json"
	"math"
	stdruntime "runtime"
	"strings"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/predictor"
	"sheriff/internal/smoothing"
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

// TestFlowRateOutsideDomainWantsNoFlow: a pair whose FlowRate is not a
// positive finite number wants no flow, so the flow it held is withdrawn
// rather than left at its last rate. Here the rate is 0 below TRF 0.5, so
// on a surge run pairs cross into and out of the zero rate. After every
// period each flow must be held by its pair at the pair's rate, and the
// runtime's invariants must hold.
func TestFlowRateOutsideDomainWantsNoFlow(t *testing.T) {
	rate := func(trf float64) float64 {
		if trf < 0.5 {
			return 0
		}
		return 0.05 + 0.4*trf
	}
	r := drive(buildEquivRuntime(t, 23, Options{Shards: 2, FlowRate: rate, Traces: traces.Options{Kind: traces.Surge,
		Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}}))
	zeroed, carried := 0, 0
	for period := 0; period < 60; period++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		held := make(map[int]bool)
		for _, e := range r.sh.edges {
			if e.src >= 0 && e.srcNode != e.dstNode && e.rate == 0 {
				zeroed++
			}
			if e.f == nil {
				continue
			}
			held[e.f.ID] = true
			if e.f.Rate != e.rate {
				t.Fatalf("period %d: pair (%d,%d) rates %v, its flow %d carries %v", period, e.a, e.b, e.rate, e.f.ID, e.f.Rate)
			}
		}
		for _, f := range r.Flows.Flows() {
			if !held[f.ID] {
				t.Fatalf("period %d: flow %d is held by no pair", period, f.ID)
			}
			carried++
		}
	}
	if zeroed == 0 || carried == 0 {
		t.Fatalf("over 60 periods %d cross-rack pairs rated 0 and %d flows were carried: the rate never crossed its threshold both ways", zeroed, carried)
	}
}

// TestHoltStatesFlushSubnormals: VMs that report one constant profile for
// 5,000 periods after a warm start, and the rack monitors whose uplinks
// carry their constant traffic, have no subnormal Holt state after any
// flush, which comes every smoothing.FlushEvery periods by the period count
// a snapshot carries. Folded without the flush, the trends (and the levels
// of the components at 0) would sit at ±5e-324 from about period 2,000 on.
func TestHoltStatesFlushSubnormals(t *testing.T) {
	r := buildRuntime(t, 4, 1)
	subnormal := func(v float64) bool { return v != 0 && math.Abs(v) < 0x1p-1022 }
	vms := r.Cluster.VMs()
	updates := make([]ExternalUpdate, len(vms))
	for p := 0; p < 5000; p++ {
		for i, vm := range vms {
			x := [3]float64{0, 0.3, 0.6}[i%3]
			if p < 4 {
				x = 0.8 - 0.1*float64(p) // a warm start: trends that are not 0
			}
			updates[i] = ExternalUpdate{VM: vm.ID, Profile: traces.Profile{CPU: x, Mem: 0.3, IO: 0, TRF: 0.2}}
		}
		if _, err := r.StepExternal(updates); err != nil {
			t.Fatal(err)
		}
		if r.step%smoothing.FlushEvery != 0 {
			continue
		}
		for i, hp := range r.sh.pred {
			for c, h := range hp {
				if subnormal(h.level) || subnormal(h.trend) {
					t.Fatalf("period %d: VM %d component %d holds (%g, %g) after the flush", r.step, r.sh.vms[i].ID, c, h.level, h.trend)
				}
			}
		}
		for rk, q := range r.sh.qHolt {
			if subnormal(q.level) || subnormal(q.trend) {
				t.Fatalf("period %d: rack %d's monitor holds (%g, %g) after the flush", r.step, rk, q.level, q.trend)
			}
		}
	}
}

// TestDeepFitRoundSameAtAnyShardsAndProcs: the period that fits every
// rack's deep pool fits them on the shared pool, racks claimed one at a
// time by whichever worker is free, after the predict round. The pools
// must not depend on who fitted them: after the fit period, the snapshot
// is the same bytes at 1, 2 and 5 shards and at GOMAXPROCS 1 and 2.
func TestDeepFitRoundSameAtAnyShardsAndProcs(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2} {
		stdruntime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 5} {
			r := newDeepSnapRuntime(t, 4, shards)
			if _, err := drive(r).Run(r.opts.DeepFitAfter); err != nil {
				t.Fatal(err)
			}
			for rk := range r.Cluster.Racks {
				if !r.DeepReady(rk) {
					t.Fatalf("GOMAXPROCS %d, %d shards: rack %d's pool not fitted in the fit period", procs, shards, rk)
				}
			}
			snap, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d, %d shards: snapshot after the fit period is %s, at GOMAXPROCS 1 and 1 shard %s", procs, shards, digest(got), digest(want))
			}
		}
	}
}
