package runtime

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// buildParts constructs the cluster/model pair buildRuntime uses, exposed
// separately so restore tests can rebuild an identical empty cluster.
func buildParts(t *testing.T, pods int) (*dcn.Cluster, *cost.Model) {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		t.Fatal(err)
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return cluster, model
}

func sameStats(t *testing.T, tag string, a, b StepStats) {
	t.Helper()
	// Timings are wall-clock artifacts; blank them before comparing.
	a.Timings, b.Timings = PhaseTimings{}, PhaseTimings{}
	if a != b {
		t.Fatalf("%s: stats diverged:\n original: %+v\n restored: %+v", tag, a, b)
	}
}

// TestSnapshotRestoreContinuesBitExact is the core warm-restart contract:
// run K steps, snapshot through a JSON roundtrip, restore into a freshly
// built cluster, and require the restored runtime's next M steps to be
// bit-identical to the original continuing uninterrupted.
func TestSnapshotRestoreContinuesBitExact(t *testing.T) {
	const pods, seed, before, after = 4, 7, 6, 5
	cluster, model := buildParts(t, pods)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
	built, err := New(cluster, model, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	orig := drive(built)
	if _, err := orig.Run(before); err != nil {
		t.Fatal(err)
	}

	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}

	freshCluster, freshModel := buildParts(t, pods)
	if err := freshCluster.Restore(loaded.Cluster); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(freshCluster, freshModel, Options{Seed: seed}, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	restored := drive(back)

	for i := 0; i < after; i++ {
		so, err := orig.Step()
		if err != nil {
			t.Fatal(err)
		}
		sr, err := restored.Step()
		if err != nil {
			t.Fatal(err)
		}
		sameStats(t, "step", so, sr)
	}
}

// TestSnapshotRestoreDeepPoolNoRefit checks the anti-cold-fit guarantee:
// a runtime whose deep pools have fitted snapshots them, and the restored
// runtime is deep-ready immediately and keeps predicting bit-identically.
func TestSnapshotRestoreDeepPoolNoRefit(t *testing.T) {
	const pods, seed, fitAfter = 4, 3, 30
	opts := Options{Seed: seed, DeepPredict: true, DeepFitAfter: fitAfter}
	cluster, model := buildParts(t, pods)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
	built, err := New(cluster, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	orig := drive(built)
	// Run past the fit point so at least one rack has a fitted pool.
	if _, err := orig.Run(fitAfter + 4); err != nil {
		t.Fatal(err)
	}
	ready := 0
	for i := range cluster.Racks {
		if orig.DeepReady(i) {
			ready++
		}
	}
	if ready == 0 {
		t.Fatal("no deep pool fitted after running past DeepFitAfter")
	}

	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatal(err)
	}

	freshCluster, freshModel := buildParts(t, pods)
	if err := freshCluster.Restore(loaded.Cluster); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(freshCluster, freshModel, opts, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	restored := drive(back)
	for i := range freshCluster.Racks {
		if orig.DeepReady(i) != restored.DeepReady(i) {
			t.Fatalf("rack %d: deep readiness not restored (orig %v, restored %v) — restore cold-fits",
				i, orig.DeepReady(i), restored.DeepReady(i))
		}
	}
	for i := 0; i < 4; i++ {
		so, err := orig.Step()
		if err != nil {
			t.Fatal(err)
		}
		sr, err := restored.Step()
		if err != nil {
			t.Fatal(err)
		}
		sameStats(t, "deep step", so, sr)
	}
}

// TestStepExternalFeedsProfiles drives the runtime with externally
// supplied profiles and checks the alert path fires from them.
func TestStepExternalFeedsProfiles(t *testing.T) {
	cluster, model := buildParts(t, 4)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.3, Seed: 11})
	r, err := New(cluster, model, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	vms := cluster.VMs()
	hot := traces.Profile{CPU: 0.99, Mem: 0.95, IO: 0.5, TRF: 0.5}
	var updates []ExternalUpdate
	for _, vm := range vms {
		updates = append(updates, ExternalUpdate{VM: vm.ID, Profile: hot})
	}
	var alerts int
	for i := 0; i < 5; i++ {
		stats, err := r.StepExternal(updates)
		if err != nil {
			t.Fatal(err)
		}
		alerts += stats.ServerAlerts
	}
	if alerts == 0 {
		t.Fatal("saturated external profiles never raised a server alert")
	}
}

// TestStepExternalRejectsNonFiniteProfile: a NaN or ±Inf in any component
// of an external profile is an error naming the VM, and the period does
// not advance, so the VM's forecast state never holds it: a hot finite
// stream afterwards still raises that VM's server alert.
func TestStepExternalRejectsNonFiniteProfile(t *testing.T) {
	cluster, model := buildParts(t, 4)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 20, Seed: 11})
	r, err := New(cluster, model, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	vms := cluster.VMs()
	target := vms[len(vms)/2].ID
	cool := traces.Profile{CPU: 0.2, Mem: 0.2, IO: 0.1, TRF: 0.1}
	hot := traces.Profile{CPU: 0.99, Mem: 0.95, IO: 0.5, TRF: 0.5}
	updates := func(p traces.Profile) []ExternalUpdate {
		var out []ExternalUpdate
		for _, vm := range vms {
			u := ExternalUpdate{VM: vm.ID, Profile: cool}
			if vm.ID == target {
				u.Profile = p
			}
			out = append(out, u)
		}
		return out
	}
	for comp := 0; comp < 4; comp++ {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := cool
			*[...]*float64{&p.CPU, &p.Mem, &p.IO, &p.TRF}[comp] = v
			want := fmt.Sprintf("runtime: external update for VM %d has a non-finite profile", target)
			if _, err := r.StepExternal(updates(p)); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("component %d = %v: err = %v, want %q…", comp, v, err, want)
			}
		}
	}
	if r.step != 0 {
		t.Fatalf("refused updates advanced %d periods", r.step)
	}
	// Only the target runs hot, so any server alert is its own.
	alerts := 0
	for i := 0; i < 5; i++ {
		stats, err := r.StepExternal(updates(hot))
		if err != nil {
			t.Fatal(err)
		}
		alerts += stats.ServerAlerts
	}
	if alerts == 0 {
		t.Fatalf("VM %d never alerted on a hot stream after the refused profiles", target)
	}
}

// TestStepExternalRefusedBatchChangesNothing: StepExternal checks a whole
// batch before it writes a profile, so a batch refused for its last update
// — an unknown VM, or a non-finite profile — leaves the runtime's snapshot
// byte for byte as it was, though every update before that one was good.
func TestStepExternalRefusedBatchChangesNothing(t *testing.T) {
	cluster, model := buildParts(t, 4)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.3, Seed: 11})
	r, err := New(cluster, model, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	vms := cluster.VMs()
	batch := func(p traces.Profile) []ExternalUpdate {
		out := make([]ExternalUpdate, 0, len(vms)+1)
		for _, vm := range vms {
			out = append(out, ExternalUpdate{VM: vm.ID, Profile: p})
		}
		return out
	}
	for i := 0; i < 3; i++ {
		if _, err := r.StepExternal(batch(traces.Profile{CPU: 0.2, Mem: 0.2, IO: 0.1, TRF: 0.1})); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() []byte {
		t.Helper()
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := snapshot()
	hot := traces.Profile{CPU: 0.99, Mem: 0.95, IO: 0.5, TRF: 0.5}
	for _, tc := range []struct {
		name string
		last ExternalUpdate
		want string
	}{
		{"unknown VM", ExternalUpdate{VM: 99999, Profile: hot}, "runtime: external update for unknown VM 99999"},
		{"non-finite", ExternalUpdate{VM: vms[0].ID, Profile: traces.Profile{CPU: 0.5, Mem: math.NaN()}},
			fmt.Sprintf("runtime: external update for VM %d has a non-finite profile", vms[0].ID)},
	} {
		if _, err := r.StepExternal(append(batch(hot), tc.last)); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q…", tc.name, err, tc.want)
		}
		if after := snapshot(); string(after) != string(before) {
			t.Fatalf("%s: the refused batch changed the snapshot", tc.name)
		}
	}
	if r.step != 3 {
		t.Fatalf("refused batches left the runtime at step %d, want 3", r.step)
	}
}

// TestSnapshotNamesAVMThatLeftOrJoined: the engine steps the VMs it was
// built over. After a VM joins the cluster, or leaves it, a snapshot would
// list VMs a restore cannot match to the cluster, so Snapshot refuses and
// names the VM; once the cluster holds the built VMs again, it writes.
func TestSnapshotNamesAVMThatLeftOrJoined(t *testing.T) {
	r := buildEquivRuntime(t, 1, Options{})
	hosts := r.Cluster.Hosts()
	joined, err := r.Cluster.AddVM(hosts[len(hosts)-1], 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("VM %d joined the cluster", joined.ID)
	if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("snapshot after a VM joined: err = %v, want one saying %q", err, want)
	}
	r.Cluster.Remove(joined)
	if _, err := r.Snapshot(); err != nil {
		t.Fatalf("snapshot over the built VMs: %v", err)
	}
	left := r.Cluster.VMs()[0]
	r.Cluster.Remove(left)
	want = fmt.Sprintf("VM %d has left the cluster", left.ID)
	if _, err := r.Snapshot(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("snapshot after a VM left: err = %v, want one saying %q", err, want)
	}
}

// TestStepExternalRejectsUnknownVM covers the three ways an ID misses the
// dense VM table: past it, below it, and a hole inside it.
func TestStepExternalRejectsUnknownVM(t *testing.T) {
	cluster, model := buildParts(t, 4)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 20, Seed: 11})
	vms := cluster.VMs()
	hole := vms[len(vms)/2].ID
	cluster.Remove(cluster.VM(hole))
	r, err := New(cluster, model, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{99999, -1, hole} {
		want := fmt.Sprintf("runtime: external update for unknown VM %d", id)
		if _, err := r.StepExternal([]ExternalUpdate{{VM: id}}); err == nil || err.Error() != want {
			t.Fatalf("StepExternal(VM %d) = %v, want %q", id, err, want)
		}
	}
	if _, err := r.StepExternal([]ExternalUpdate{{VM: vms[0].ID}}); err != nil {
		t.Fatal(err)
	}
}

// TestNewRejectsWildVMIDs: a restored cluster's VM IDs come from a file,
// and the cluster and the engine index dense tables by them — a wild or
// negative ID is an error where the file is read (dcn.Cluster.Restore), not
// a terabyte allocation or an index panic. The engine keeps its own check
// for the cluster that got sparse on its own, by removing VMs.
func TestNewRejectsWildVMIDs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*dcn.Snapshot)
		want    string
	}{
		{"wild VM id", func(s *dcn.Snapshot) { s.VMs.ID[0] = 1 << 40 }, "VM id 1099511627776"},
		{"negative VM id", func(s *dcn.Snapshot) { s.VMs.ID[0] = -3 }, "VM id -3"},
		{"wild dependency endpoint", func(s *dcn.Snapshot) { s.Deps = append(s.Deps, [2]int{0, 1 << 40}) }, "dependency 0–1099511627776 names VM 1099511627776"},
	} {
		donor, _ := buildParts(t, 4)
		donor.Populate(dcn.PopulateOptions{VMsPerHost: 1, MinCapacity: 5, MaxCapacity: 20, Seed: 3})
		snap, err := donor.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(snap)
		cluster, _ := buildParts(t, 4)
		if err := cluster.Restore(snap); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
		if n := len(cluster.VMs()); n != 0 {
			t.Errorf("%s: refused restore left %d VMs behind", tc.name, n)
		}
	}

	cluster, model := buildParts(t, 4)
	h := cluster.Hosts()[0]
	var last *dcn.VM
	for i := 0; i < 1100; i++ {
		if last != nil {
			cluster.Remove(last)
		}
		var err error
		if last, err = cluster.AddVM(h, 1, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := New(cluster, model, Options{Seed: 3}); err == nil || !strings.Contains(err.Error(), "too sparse") {
		t.Fatalf("New over one VM with id %d = %v, want a too-sparse refusal", last.ID, err)
	}
}
