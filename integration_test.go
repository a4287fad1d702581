package sheriff

import (
	"math"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/flow"
	"sheriff/internal/metrics"
	"sheriff/internal/migrate"
	"sheriff/internal/obs"
	"sheriff/internal/predictor"
	"sheriff/internal/runtime"
	"sheriff/internal/sim"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// TestEndToEndSheriffScenario exercises the complete story the paper
// tells, from the facade's cluster and alert rule through the internal
// packages behind them:
//
//  1. A workload series is forecast with the combined predictor.
//  2. The predicted profile crosses the threshold → pre-alert.
//  3. The rack's shim migrates VMs (PRIORITY → matching → REQUEST).
//  4. The traffic plane reroutes around a hot switch.
//  5. The migration's six-stage timeline and the cluster balance are
//     checked.
func TestEndToEndSheriffScenario(t *testing.T) {
	// --- Prediction phase ---
	trace := traces.CPU(traces.CPUConfig{Hours: 8, Seed: 99}).Values()
	sel, err := predictor.New(timeseries.New(trace[:400]), predictor.Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	nextCPU, err := sel.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(nextCPU) {
		t.Fatal("prediction NaN")
	}

	// --- Alert phase (forced overload profile) ---
	profile := Profile{CPU: 0.95, Mem: 0.5, IO: 0.2, TRF: 0.6}
	value, fired := EvaluateAlert(profile, DefaultThresholds())
	if !fired || value != 0.95 {
		t.Fatalf("alert = %v/%v", value, fired)
	}

	// --- Management phase ---
	cluster, _, shims, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	hot := cluster.Racks[0].Hosts[0]
	var vms []*dcn.VM
	for i := 0; i < 4; i++ {
		vm, err := cluster.AddVM(hot, 20, float64(i+1), false)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	before := cluster.WorkloadStdDev()
	rep, err := shims[0].ProcessAlerts([]Alert{{HostID: hot.ID, Value: value}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("no migrations")
	}
	if cluster.WorkloadStdDev() >= before {
		t.Fatalf("balance did not improve: %.2f -> %.2f", before, cluster.WorkloadStdDev())
	}

	// --- Six-stage timeline of the applied migration ---
	moved := rep.Migrations[0]
	if moved.VM.Host() == moved.From {
		t.Fatal("migration record inconsistent")
	}

	// --- Traffic plane ---
	net := flow.NewNetwork(cluster.Graph)
	src, dst := cluster.Racks[0].NodeID, cluster.Racks[1].NodeID
	for i := 0; i < 3; i++ {
		if _, err := net.AddFlow(src, dst, 0.5, false); err != nil {
			t.Fatal(err)
		}
	}
	hotSwitches := net.HotSwitches(0.9)
	if len(hotSwitches) == 0 {
		t.Fatal("no hot switch despite 1.5 load on capacity-1 links")
	}
	movedFlows := net.RerouteAroundHot(hotSwitches[0], 0.9)
	if len(movedFlows) == 0 {
		t.Fatal("reroute moved nothing")
	}

	// --- Keep VMs accounted for ---
	total := 0.0
	for _, vm := range vms {
		if vm.Host() == nil {
			t.Fatal("VM lost")
		}
		total += vm.Capacity
	}
	if total != 80 {
		t.Fatalf("capacity changed: %v", total)
	}
}

// TestEndToEndRuntimeWithMetrics runs the assembled runtime and folds its
// step statistics through the streaming metrics, asserting the summaries
// stay coherent.
func TestEndToEndRuntimeWithMetrics(t *testing.T) {
	cluster, model, _, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{
		VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 15,
		DependencyProb: 0.4, CrossRackDependencyProb: 0.4, Seed: 123,
	})
	rt, err := runtime.New(cluster, model, runtime.Options{Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	reporters := sim.Reporters(rt)
	var sd, up metrics.Summary
	for i := 0; i < 25; i++ {
		s, err := rt.StepExternal(reporters.Next())
		if err != nil {
			t.Fatal(err)
		}
		sd.Observe(s.WorkloadStdDev)
		up.Observe(s.MaxUplinkUtil)
	}
	if sd.Count() != 25 {
		t.Fatalf("summary count = %d", sd.Count())
	}
	if sd.Mean() < 0 || math.IsNaN(sd.Mean()) {
		t.Fatalf("mean stddev = %v", sd.Mean())
	}
	if math.IsNaN(up.Max()) {
		t.Fatal("max uplink NaN")
	}
	if up.Min() < 0 {
		t.Fatalf("min uplink = %v", up.Min())
	}
}

// TestRequestPolicyFacade checks the per-call admission hook: a
// MigrationOptions.Policy refusing every REQUEST leaves the call's VMs
// unplaced, each refusal traced with cause "policy", and does not outlive
// its call — the next Migrate, with no policy, places them.
func TestRequestPolicyFacade(t *testing.T) {
	cluster, model, shims, err := NewFatTreeCluster(4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.3, Seed: 1})
	var events []obs.Event
	rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.Func(func(e obs.Event) error {
		events = append(events, e)
		return nil
	})}})
	if err != nil {
		t.Fatal(err)
	}
	vms := shims[0].Rack.Hosts[0].VMs()
	if len(vms) == 0 {
		t.Fatal("the populated host holds no VM")
	}
	var hosts []*dcn.Host
	for _, r := range shims[0].NeighborRacks() {
		hosts = append(hosts, r.Hosts...)
	}

	deny := func(*dcn.VM, *dcn.Host) bool { return false }
	res, err := migrate.Migrate(cluster, model, vms, hosts, migrate.MigrationOptions{Policy: deny, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 0 || len(res.Unplaced) != len(vms) || res.Rejected == 0 {
		t.Fatalf("policy did not block: %d migrations, %d of %d unplaced, %d rejected",
			len(res.Migrations), len(res.Unplaced), len(vms), res.Rejected)
	}
	rejects := 0
	for _, e := range events {
		if e.Kind == obs.KindReject {
			rejects++
			if e.Attrs["cause"] != "policy" {
				t.Fatalf("reject event with cause %q, want policy", e.Attrs["cause"])
			}
		}
	}
	if rejects != res.Rejected {
		t.Fatalf("%d reject events for %d rejections", rejects, res.Rejected)
	}

	res, err = migrate.Migrate(cluster, model, vms, hosts, migrate.MigrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) == 0 {
		t.Fatal("no migrations in a call without the policy")
	}
}
