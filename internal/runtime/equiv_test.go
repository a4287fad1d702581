package runtime

import (
	"encoding/json"
	"math/rand"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// equivScenario is one regime the sharded engine must reproduce
// bit-exactly against the reference engine.
type equivScenario struct {
	name     string
	steps    int
	external bool // drive via StepExternal instead of Step
	mutate   func(*Options)
	parts    partsFunc                                    // nil is equivParts' 4-pod Fat-Tree
	edit     func(t *testing.T, step int, c *dcn.Cluster) // when set, edits the cluster before each step
}

// partsFunc builds a populated fabric and its cost model from a seed.
type partsFunc func(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model)

func equivScenarios() []equivScenario {
	return []equivScenario{
		{name: "default", steps: 12},
		{name: "deep", steps: 14, mutate: func(o *Options) {
			o.DeepPredict = true
			o.DeepFitAfter = 6
		}},
		{name: "no-reroute", steps: 10, mutate: func(o *Options) {
			o.DisableReroute = true
			o.FlowRate = func(trf float64) float64 { return 0.5 + 0.5*trf }
		}},
		{name: "external", steps: 10, external: true},
		{name: "lite", steps: 12, mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.Lite}
		}},
		{name: "surge", steps: 12, mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.Surge,
				Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}
		}},
		{name: "surge-lite", steps: 12, mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.SurgeLite,
				Surge: traces.SurgeParams{MeanDwell: 4, BurstWeight: 1, RackFraction: 0.5}}
		}},
		// A leaf-spine fabric: sparse racks, a deferred cost model,
		// thresholds low enough to alert.
		{name: "leaf-spine", steps: 4, parts: leafSpineParts, mutate: func(o *Options) {
			o.Thresholds = alert.Thresholds{CPU: 0.5, Mem: 0.5, IO: 0.5, TRF: 0.5}
		}},
	}
}

// leafSpineParts is a 50-rack leaf-spine, 1 host × 2 VMs a rack, sparse
// dependencies, over a cost model that sweeps nothing until asked.
func leafSpineParts(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model) {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 50})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ls.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.1, CrossRackDependencyProb: 0.1, Seed: seed})
	model, err := cost.NewDeferred(cluster, cost.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return cluster, model
}

// equivParts is the fabric the equivalence runtimes stand on unless a
// scenario brings its own: a 4-pod Fat-Tree, 3 VMs a host, dense
// dependencies.
func equivParts(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model) {
	t.Helper()
	cluster, model := buildParts(t, 4)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
	return cluster, model
}

// externalProfile is a deterministic pseudo-measurement for the external
// scenario, a pure function of (step, vmID).
func externalProfile(step, vmID int) traces.Profile {
	f := func(k int) float64 {
		x := float64((step*31+vmID*17+k*7)%100) / 100
		return x
	}
	return traces.Profile{CPU: f(0), Mem: f(1), IO: f(2), TRF: f(3)}
}

func buildEquivRuntime(t *testing.T, seed int64, opts Options) *Runtime {
	t.Helper()
	return buildEquivOn(t, equivParts, seed, opts)
}

func buildEquivOn(t *testing.T, parts partsFunc, seed int64, opts Options) *Runtime {
	t.Helper()
	cluster, model := parts(t, seed)
	opts.Seed = seed
	r, err := New(cluster, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// buildEquivReference is buildEquivOn for the seed engine.
func buildEquivReference(t *testing.T, parts partsFunc, seed int64, opts Options) *refRuntime {
	t.Helper()
	cluster, model := parts(t, seed)
	opts.Seed = seed
	r, err := newReference(cluster, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func driveEquiv(t *testing.T, r engine, sc equivScenario) []StepStats {
	t.Helper()
	for step := 0; step < sc.steps; step++ {
		if sc.edit != nil {
			sc.edit(t, step, runtimeOf(r).Cluster)
		}
		var err error
		if sc.external {
			var updates []ExternalUpdate
			for _, vm := range runtimeOf(r).Cluster.VMs() {
				// Every third VM is silent each step, exercising the
				// repeat-last-profile path.
				if (vm.ID+step)%3 == 0 {
					continue
				}
				updates = append(updates, ExternalUpdate{VM: vm.ID, Profile: externalProfile(step, vm.ID)})
			}
			_, err = r.StepExternal(updates)
		} else {
			_, err = r.Step()
		}
		if err != nil {
			t.Fatalf("%s step %d: %v", sc.name, step, err)
		}
	}
	return r.History()
}

// TestShardedMatchesReference is the engine-equivalence contract: for
// every scenario and shard count, the sharded engine's StepStats, final
// placement, and snapshot are bit-identical to the reference engine's.
func TestShardedMatchesReference(t *testing.T) {
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) { matchReference(t, sc) })
	}
}

// matchReference runs sc on the reference engine and on the sharded one at
// 1, 2 and 5 shards, and fails unless every step's StepStats, the final
// placement and the snapshot bytes agree.
func matchReference(t *testing.T, sc equivScenario) {
	t.Helper()
	parts := sc.parts
	if parts == nil {
		parts = equivParts
	}
	refOpts := Options{}
	if sc.mutate != nil {
		sc.mutate(&refOpts)
	}
	ref := buildEquivReference(t, parts, 11, refOpts)
	refHist := driveEquiv(t, ref, sc)
	refPlaced := placement(ref.Cluster)

	snap, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refSnap, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 5} {
		shOpts := Options{Shards: shards}
		if sc.mutate != nil {
			sc.mutate(&shOpts)
		}
		sh := buildEquivOn(t, parts, 11, shOpts)
		shHist := driveEquiv(t, sh, sc)
		if len(shHist) != len(refHist) {
			t.Fatalf("shards=%d: %d steps, reference has %d", shards, len(shHist), len(refHist))
		}
		for i := range refHist {
			sameStats(t, sc.name, refHist[i], shHist[i])
		}
		for id, host := range placement(sh.Cluster) {
			if refPlaced[id] != host {
				t.Fatalf("shards=%d: VM %d ends on host %d, on %d under the reference engine", shards, id, host, refPlaced[id])
			}
		}
		snap, err := sh.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(refSnap) {
			t.Fatalf("shards=%d: snapshot diverged from reference engine", shards)
		}
	}
}

// reverseParts is a 4-pod Fat-Tree filled from its last host to its first,
// so VM IDs fall as racks rise and a pair's rate comes from its higher-ID
// endpoint, the one the engine meets first in rack-major order. Random
// dependencies link VMs on different hosts, most of them across racks.
func reverseParts(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model) {
	t.Helper()
	cluster, model := buildParts(t, 4)
	rng := rand.New(rand.NewSource(seed))
	hosts := cluster.Hosts()
	for i := len(hosts) - 1; i >= 0; i-- {
		for k := 0; k < 3; k++ {
			if _, err := cluster.AddVM(hosts[i], 5+15*rng.Float64(), 1+9*rng.Float64(), rng.Float64() < 0.2); err != nil {
				t.Fatal(err)
			}
		}
	}
	vms := cluster.VMs()
	for _, vm := range vms {
		if peer := vms[rng.Intn(len(vms))]; peer.Host() != vm.Host() {
			cluster.Deps.AddDependency(vm.ID, peer.ID)
		}
	}
	return cluster, model
}

// editDeps edits G_d between periods, the same way on whichever engine's
// cluster it is handed, choosing from the cluster's state alone: before
// period 3 it adds a cross-rack dependency, before 5 it removes one, before
// 7 it removes the VM with the most peers, and before 9 it admits a VM
// neither engine steps and makes it a peer of one they do.
func editDeps(t *testing.T, step int, c *dcn.Cluster) {
	t.Helper()
	vms := c.VMs()
	crossRack := func(u, v *dcn.VM) bool { return u.Host().Rack() != v.Host().Rack() }
	switch step {
	case 3:
		u := vms[0]
		for _, v := range vms[1:] {
			if crossRack(u, v) && !c.Deps.Dependent(u.ID, v.ID) {
				c.Deps.AddDependency(u.ID, v.ID)
				return
			}
		}
	case 5:
		for _, u := range vms {
			for _, p := range c.Deps.Peers(u.ID) {
				if crossRack(u, c.VM(p)) {
					c.Deps.RemoveDependency(u.ID, p)
					return
				}
			}
		}
	case 7:
		most := vms[0]
		for _, vm := range vms {
			if c.Deps.Degree(vm.ID) > c.Deps.Degree(most.ID) {
				most = vm
			}
		}
		c.Remove(most)
	case 9:
		roomiest := c.Hosts()[0]
		for _, h := range c.Hosts() {
			if h.Free() > roomiest.Free() {
				roomiest = h
			}
		}
		vm, err := c.AddVM(roomiest, 5, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vms {
			if crossRack(vm, v) {
				c.Deps.AddDependency(vm.ID, v.ID)
				return
			}
		}
	}
}

// TestDependencyEditsMatchReference: G_d edited under a running runtime —
// a dependency added, one removed, a VM removed with its edges, a peer the
// engine does not step — leaves the sharded engine bit-identical to the
// reference engine, which rebuilds its pair map every period, at every
// shard count. The sharded engine rebuilds its edge table at exactly the
// periods that follow an edit.
func TestDependencyEditsMatchReference(t *testing.T) {
	sc := equivScenario{name: "dependency-edits", steps: 12, parts: reverseParts, edit: editDeps,
		mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.Surge, Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}
		}}
	matchReference(t, sc)

	opts := Options{Shards: 2}
	sc.mutate(&opts)
	r := buildEquivOn(t, reverseParts, 11, opts)
	migrations := 0
	for step := 0; step < sc.steps; step++ {
		table, version := &r.sh.edges[0], r.Cluster.Deps.Version()
		editDeps(t, step, r.Cluster)
		edited := r.Cluster.Deps.Version() != version
		st, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		migrations += st.Migrations
		if rebuilt := &r.sh.edges[0] != table; rebuilt != edited {
			t.Fatalf("period %d: edge table rebuilt = %v, G_d edited = %v", step, rebuilt, edited)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("period %d: %v", step, err)
		}
	}
	if migrations == 0 {
		t.Fatal("scenario raised no migrations; no VM changed rack under the table")
	}
}

// placement maps every VM to the host it lives on (-1 = none).
func placement(c *dcn.Cluster) map[int]int {
	out := make(map[int]int)
	for _, vm := range c.VMs() {
		out[vm.ID] = -1
		if h := vm.Host(); h != nil {
			out[vm.ID] = h.ID
		}
	}
	return out
}

// TestShardedDeterministicAcrossShardCounts pins the determinism argument
// directly: the shard count is a pure performance knob, invisible in
// results.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	base := driveEquiv(t, buildEquivRuntime(t, 3, Options{Shards: 1}), equivScenario{name: "base", steps: 10})
	for _, shards := range []int{2, 3, 8} {
		got := driveEquiv(t, buildEquivRuntime(t, 3, Options{Shards: shards}), equivScenario{name: "base", steps: 10})
		for i := range base {
			sameStats(t, "shard-count", base[i], got[i])
		}
	}
}

// TestHistoryRing verifies the bounded-history contract: with
// HistoryLimit set, History() returns exactly the last N steps oldest
// first; without it, every step is retained.
func TestHistoryRing(t *testing.T) {
	r := buildEquivRuntime(t, 5, Options{HistoryLimit: 4})
	if _, err := r.Run(10); err != nil {
		t.Fatal(err)
	}
	h := r.History()
	if len(h) != 4 {
		t.Fatalf("history length = %d, want 4", len(h))
	}
	for i, s := range h {
		if s.Step != 6+i {
			t.Fatalf("history[%d].Step = %d, want %d", i, s.Step, 6+i)
		}
	}

	unbounded := buildEquivRuntime(t, 5, Options{})
	if _, err := unbounded.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := len(unbounded.History()); got != 10 {
		t.Fatalf("unbounded history length = %d, want 10", got)
	}
}

// TestSnapshotRestoreShardCountChange runs 6 steps on a 3-shard runtime,
// snapshots, restores onto a 7-shard runtime, runs 4 more, and requires
// the concatenated trajectory to be bit-identical to a straight 10-step
// run — the shard partition is orthogonal to snapshot state.
func TestSnapshotRestoreShardCountChange(t *testing.T) {
	const seed, before, after = 13, 6, 4

	straight := buildEquivRuntime(t, seed, Options{Shards: 2})
	wantHist := driveEquiv(t, straight, equivScenario{name: "straight", steps: before + after})

	part := buildEquivRuntime(t, seed, Options{Shards: 3})
	gotHist := append([]StepStats(nil), driveEquiv(t, part, equivScenario{name: "part1", steps: before})...)

	snap, err := part.Snapshot()
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
	freshCluster, freshModel := buildParts(t, 4)
	if err := freshCluster.Restore(loaded.Cluster); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(freshCluster, freshModel, Options{Seed: seed, Shards: 7}, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for i := 0; i < after; i++ {
		s, err := restored.Step()
		if err != nil {
			t.Fatal(err)
		}
		gotHist = append(gotHist, *s)
	}

	if len(gotHist) != len(wantHist) {
		t.Fatalf("trajectory lengths: got %d, want %d", len(gotHist), len(wantHist))
	}
	for i := range wantHist {
		sameStats(t, "restart", wantHist[i], gotHist[i])
	}
}

// TestSnapshotRestoreSurgeRegime: a surge-kind runtime snapshots its trace
// options whole, a restore replays the same regime schedule (and the same
// correlated rack bursts) bit-exactly, and a restore that asks for a
// different family is refused.
func TestSnapshotRestoreSurgeRegime(t *testing.T) {
	const seed, before, after = 21, 5, 5
	trOpts := traces.Options{Kind: traces.Surge,
		Surge: traces.SurgeParams{MeanDwell: 4, BurstWeight: 1, RackFraction: 0.5, Intensity: 1.5}}

	straight := buildEquivRuntime(t, seed, Options{Traces: trOpts})
	wantHist := driveEquiv(t, straight, equivScenario{name: "straight", steps: before + after})

	part := buildEquivRuntime(t, seed, Options{Traces: trOpts})
	gotHist := append([]StepStats(nil), driveEquiv(t, part, equivScenario{name: "part1", steps: before})...)

	snap, err := part.Snapshot()
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
	freshCluster, freshModel := buildParts(t, 4)
	if err := freshCluster.Restore(loaded.Cluster); err != nil {
		t.Fatal(err)
	}
	// The restore does not need the surge params re-specified: they ride
	// in the snapshot.
	restored, err := Restore(freshCluster, freshModel, Options{Seed: seed}, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for i := 0; i < after; i++ {
		s, err := restored.Step()
		if err != nil {
			t.Fatal(err)
		}
		gotHist = append(gotHist, *s)
	}
	for i := range wantHist {
		sameStats(t, "surge-restart", wantHist[i], gotHist[i])
	}

	// Conflicting regime requests must be refused, not silently adopted.
	otherCluster, otherModel := buildParts(t, 4)
	if err := otherCluster.Restore(loaded.Cluster); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(otherCluster, otherModel,
		Options{Traces: traces.Options{Kind: traces.Lite}}, &loaded); err == nil {
		t.Fatal("restore accepted a conflicting trace kind")
	}
}

// TestManagePhaseSweepsOnlyAskingRacks pins the demand-driven cost refresh:
// over the same alerting run the sharded engine — which hands
// RefreshSources the racks whose shims are about to price moves — sweeps
// fewer rows than the reference engine's full Refresh, its queries find the
// rows they need already swept, and (TestShardedMatchesReference) every
// decision is still the same.
func TestManagePhaseSweepsOnlyAskingRacks(t *testing.T) {
	sc := equivScenario{name: "surge", steps: 20}
	opts := Options{Traces: traces.Options{Kind: traces.Surge,
		Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}}
	ref := buildEquivReference(t, equivParts, 11, opts)
	sharded := buildEquivRuntime(t, 11, opts)
	refHist, shHist := driveEquiv(t, ref, sc), driveEquiv(t, sharded, sc)
	migrations := 0
	for i := range refHist {
		if refHist[i].Migrations != shHist[i].Migrations || refHist[i].MigrationCost != shHist[i].MigrationCost {
			t.Fatalf("step %d: engines diverge (%d/%v vs %d/%v)", i,
				refHist[i].Migrations, refHist[i].MigrationCost, shHist[i].Migrations, shHist[i].MigrationCost)
		}
		migrations += shHist[i].Migrations
	}
	if migrations == 0 {
		t.Fatal("scenario raised no migrations; nothing priced")
	}
	refAhead, refLate := ref.Model.SweepCounts()
	ahead, late := sharded.Model.SweepCounts()
	if refLate != 0 {
		t.Fatalf("reference engine's full Refresh left %d rows for queries to sweep", refLate)
	}
	if ahead+late >= refAhead {
		t.Fatalf("sharded engine swept %d+%d rows, reference %d: nothing saved", ahead, late, refAhead)
	}
	if late*10 > ahead {
		t.Fatalf("%d rows swept on demand against %d named ahead: the manage phase names the wrong racks", late, ahead)
	}
}

// TestRegionalRowsCoverEveryRead pins what the regional cost rows rest on:
// every read the shims make of a prepared row is for a rack of the row's
// region. Over a long surge on a sharded Fat-Tree 8 no query sweeps a row
// on demand, and the manage phase prepares exactly as many rows as it did
// when every prepared row was swept in full (the count below). A rack
// that starts pricing without being named, or a shim that prices outside
// its region, shows up here as an on-demand sweep.
func TestRegionalRowsCoverEveryRead(t *testing.T) {
	const periods, wantPrepared = 160, 255
	parts := func(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model) {
		cluster, model := buildParts(t, 8)
		cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
		return cluster, model
	}
	r := buildEquivOn(t, parts, 3, Options{Shards: 4, Traces: traces.Options{Kind: traces.Surge,
		Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}})
	before, _ := r.Model.SweepCounts() // cost.New's eager rows
	migrations := 0
	for i := 0; i < periods; i++ {
		st, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		migrations += st.Migrations
	}
	prepared, onDemand := r.Model.SweepCounts()
	t.Logf("%d periods: %d migrations, %d rows prepared, %d swept on demand", periods, migrations, prepared-before, onDemand)
	if migrations == 0 {
		t.Fatal("scenario raised no migrations; nothing priced")
	}
	if onDemand != 0 || prepared-before != wantPrepared {
		t.Fatalf("%d rows prepared and %d swept on demand, want %d and 0", prepared-before, onDemand, wantPrepared)
	}
}
