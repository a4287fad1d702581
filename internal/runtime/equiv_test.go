package runtime

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// equivScenario is one regime whose run the step engine must reproduce
// bit for bit at every shard count and across a restore at every period.
type equivScenario struct {
	name     string
	seed     int64 // 0 is 11
	steps    int
	external bool // feed made-up profiles, some VMs silent, instead of the reporters' streams
	mutate   func(*Options)
	parts    partsFunc                                    // nil is equivParts' 4-pod Fat-Tree
	fabric   fabricFunc                                   // parts' fabric left empty, for restores; nil is buildParts' 4-pod Fat-Tree
	edit     func(t *testing.T, step int, c *dcn.Cluster) // when set, edits the cluster before each step
}

// partsFunc builds a populated fabric and its cost model from a seed.
type partsFunc func(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model)

// fabricFunc builds a fabric with no VMs and its cost model.
type fabricFunc func(t *testing.T) (*dcn.Cluster, *cost.Model)

// options are sc's runtime options at the given shard count.
func (sc equivScenario) options(shards int) Options {
	opts := Options{Shards: shards}
	if sc.mutate != nil {
		sc.mutate(&opts)
	}
	return opts
}

// build is sc's runtime at the given shard count, before its first period.
func (sc equivScenario) build(t *testing.T, shards int) *Runtime {
	t.Helper()
	parts, seed := sc.parts, sc.seed
	if parts == nil {
		parts = equivParts
	}
	if seed == 0 {
		seed = 11
	}
	return buildEquivOn(t, parts, seed, sc.options(shards))
}

// restore decodes doc onto an empty copy of sc's fabric as a runtime at
// the given shard count.
func (sc equivScenario) restore(t *testing.T, doc []byte, shards int) *Runtime {
	t.Helper()
	var snap Snapshot
	if err := json.Unmarshal(doc, &snap); err != nil {
		t.Fatal(err)
	}
	fabric := sc.fabric
	if fabric == nil {
		fabric = func(t *testing.T) (*dcn.Cluster, *cost.Model) { return buildParts(t, 4) }
	}
	cluster, model := fabric(t)
	if err := cluster.Restore(snap.Cluster); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cluster, model, sc.options(shards), &snap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func equivScenarios() []equivScenario {
	return []equivScenario{
		// Seed 26 is the first whose diurnal streams alert, and migrate,
		// in the first 12 periods on this fabric.
		{name: "default", seed: 26, steps: 12},
		// The pools fit at period 22, on the shortest history every
		// candidate fits on (predictor.MinFitLength); four periods then
		// run on them.
		{name: "deep", seed: 26, steps: 26, mutate: func(o *Options) {
			o.DeepPredict = true
			o.DeepFitAfter = 22
		}},
		{name: "no-reroute", steps: 10, mutate: func(o *Options) {
			o.DisableReroute = true
			o.FlowRate = func(trf float64) float64 { return 0.5 + 0.5*trf }
		}},
		{name: "external", steps: 10, external: true},
		{name: "lite", steps: 12, mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.Lite}
		}},
		// At seed 23 the surges alert, migrate and reroute within 12
		// periods.
		{name: "surge", seed: 23, steps: 12, mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.Surge,
				Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}
		}},
		// A burst-only regime: every surge episode is a rack burst over
		// half the racks. At seed 7 the bursts alert and migrate within 12
		// periods; at the default seed they stay under the thresholds.
		{name: "surge-burst", seed: 7, steps: 12, mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.Surge,
				Surge: traces.SurgeParams{MeanDwell: 4, BurstWeight: 1, RackFraction: 0.5}}
		}},
		// A leaf-spine fabric: sparse racks, a deferred cost model,
		// thresholds low enough to alert.
		{name: "leaf-spine", steps: 4, parts: leafSpineParts, fabric: leafSpineFabric, mutate: func(o *Options) {
			o.Thresholds = alert.Thresholds{CPU: 0.5, Mem: 0.5, IO: 0.5, TRF: 0.5}
		}},
		// G_d edited under the running runtime (editDeps), at a seed whose
		// surges move VMs across racks under the edits.
		{name: "dependency-edits", seed: 3, steps: 12, parts: reverseParts, edit: editDeps, mutate: func(o *Options) {
			o.Traces = traces.Options{Kind: traces.Surge, Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}
		}},
		// The runs TestShardedDeterministicAcrossShardCounts and
		// TestSnapshotRestoreShardCountChange make: the default regime with
		// thresholds low enough that it migrates on both sides of the
		// latter's split after period 6.
		{name: "seed-3", seed: 3, steps: 10, mutate: lowThresholds},
		{name: "seed-13", seed: 13, steps: 10, mutate: lowThresholds},
	}
}

// lowThresholds alerts the default regime's diurnal streams, which stay
// below the default 0.9 for the first periods at most seeds.
func lowThresholds(o *Options) {
	o.Thresholds = alert.Thresholds{CPU: 0.45, Mem: 0.45, IO: 0.45, TRF: 0.45}
}

// scenario is the equivScenarios() row called name.
func scenario(t *testing.T, name string) equivScenario {
	t.Helper()
	for _, sc := range equivScenarios() {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %s", name)
	return equivScenario{}
}

// leafSpineParts is a 50-rack leaf-spine, 1 host × 2 VMs a rack, sparse
// dependencies, over a cost model that sweeps nothing until asked.
func leafSpineParts(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model) {
	t.Helper()
	cluster, model := leafSpineFabric(t)
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.1, CrossRackDependencyProb: 0.1, Seed: seed})
	return cluster, model
}

// leafSpineFabric is leafSpineParts' fabric with no VMs.
func leafSpineFabric(t *testing.T) (*dcn.Cluster, *cost.Model) {
	t.Helper()
	ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: 50})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ls.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
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

// driveEquiv steps r through sc from its first period and returns the
// periods' stats.
func driveEquiv(t *testing.T, r *Runtime, sc equivScenario) []StepStats {
	t.Helper()
	return drivePeriods(t, r, sc, 0, sc.steps, nil, nil)
}

// drivePeriods steps r, standing at period from, through sc's periods
// from..to-1, fed by the reporters feed opens for it or, in the external
// scenario, by made-up profiles, and returns the periods' stats. The
// runtime's invariants must hold after every period. When d is set, each
// period is digested into it; when after is set, it runs after each
// period with the number of periods done.
func drivePeriods(t *testing.T, r *Runtime, sc equivScenario, from, to int, d *scenarioDigest, after func(done int)) []StepStats {
	t.Helper()
	reporters := feed(r)
	hist := make([]StepStats, 0, to-from)
	for step := from; step < to; step++ {
		if sc.edit != nil {
			version := r.Cluster.Deps.Version()
			sc.edit(t, step, r.Cluster)
			if d != nil && r.Cluster.Deps.Version() != version {
				d.Covers.DepEdits++
			}
		}
		var updates []ExternalUpdate
		if sc.external {
			for _, vm := range r.Cluster.VMs() {
				// Every third VM is silent each step, exercising the
				// repeat-last-profile path.
				if (vm.ID+step)%3 == 0 {
					continue
				}
				updates = append(updates, ExternalUpdate{VM: vm.ID, Profile: externalProfile(step, vm.ID)})
			}
		} else {
			updates = reporters.Next()
		}
		s, err := r.StepExternal(updates)
		if err != nil {
			t.Fatalf("%s step %d: %v", sc.name, step, err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("%s after step %d: %v", sc.name, step, err)
		}
		hist = append(hist, s)
		if d != nil {
			d.observe(t, s)
		}
		if after != nil {
			after(step + 1)
		}
	}
	return hist
}

// TestShardedMatchesReference is the engine-equivalence contract. The seed
// engine the sharded one replaced recorded every scenario's run in
// testdata/engine_digests.golden.json before it was deleted; for every
// scenario, the engine at 1, 2 and 5 shards, and the 2-shard run split at
// every period — snapshot, JSON round trip, restore onto a fresh fabric at
// 1 or 5 shards, run on — must give that record: each period's StepStats,
// the final placement and the final snapshot, with the runtime's
// invariants holding after every period. A split at which a VM has left or
// joined the cluster since the runtime was built must instead be refused
// by Snapshot, naming the VM.
func TestShardedMatchesReference(t *testing.T) {
	var want map[string]scenarioDigest
	if !*updateGolden {
		want = loadDigests(t)
	}
	got := make(map[string]scenarioDigest)
	for _, sc := range equivScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			d := matchShardsAndSplits(t, sc)
			got[sc.name] = d
			if *updateGolden {
				return
			}
			w, ok := want[sc.name]
			if !ok {
				t.Fatalf("%s has no row for %s", digestsPath, sc.name)
			}
			sameDigest(t, digestsPath, w, d)
		})
	}
	if *updateGolden {
		writeDigests(t, got)
		loadDigests(t)
	} else if len(want) != len(equivScenarios()) {
		t.Fatalf("%s has %d rows, want one per scenario (%d)", digestsPath, len(want), len(equivScenarios()))
	}
}

// matchShardsAndSplits runs sc at 1, 2 and 5 shards, and the 2-shard run
// split at every period, fails unless every run digests alike, and returns
// the digest.
func matchShardsAndSplits(t *testing.T, sc equivScenario) scenarioDigest {
	t.Helper()
	var base scenarioDigest
	for _, shards := range []int{1, 2, 5} {
		r := sc.build(t, shards)
		built := vmIDs(r.Cluster)
		d := scenarioDigest{Name: sc.name}
		var split func(done int)
		if shards == 2 {
			split = func(done int) {
				if done < sc.steps {
					splitAt(t, sc, r, d, built, done, base)
				}
			}
		}
		drivePeriods(t, r, sc, 0, sc.steps, &d, split)
		d.finish(t, r)
		if shards == 1 {
			base = d
			continue
		}
		sameDigest(t, fmt.Sprintf("shards=%d", shards), base, d)
	}
	return base
}

// splitAt snapshots r, done periods into sc and built over the VMs built,
// restores the document at 1 shard after an even period and at 5 after an
// odd one, and runs the rest of sc there; prefix digests r's periods so
// far, and the whole run must digest as want. When the cluster's VMs are
// no longer the ones r was built over, the snapshot must instead be
// refused, naming the first VM that left or joined.
func splitAt(t *testing.T, sc equivScenario, r *Runtime, prefix scenarioDigest, built []int, done int, want scenarioDigest) {
	t.Helper()
	snap, err := r.Snapshot()
	if moved, ok := firstDifference(built, vmIDs(r.Cluster)); ok {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("VM %d ", moved)) {
			t.Fatalf("split after period %d: VM %d has left or joined the cluster, but Snapshot returned error %v", done, moved, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("split after period %d: %v", done, err)
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	shards := 1 + 4*(done%2)
	restored := sc.restore(t, doc, shards)
	d := prefix
	d.Steps = slices.Clone(prefix.Steps)
	drivePeriods(t, restored, sc, done, sc.steps, &d, nil)
	d.finish(t, restored)
	sameDigest(t, fmt.Sprintf("split after period %d onto %d shards", done, shards), want, d)
}

// vmIDs lists the cluster's VM IDs in ascending order.
func vmIDs(c *dcn.Cluster) []int {
	var ids []int
	for _, vm := range c.VMs() {
		ids = append(ids, vm.ID)
	}
	return ids
}

// firstDifference is the smallest ID in one of the two lists but not the
// other, if there is one.
func firstDifference(a, b []int) (int, bool) {
	in := func(ids []int, id int) bool { _, ok := slices.BinarySearch(ids, id); return ok }
	first, found := 0, false
	for _, ids := range [][2][]int{{a, b}, {b, a}} {
		for _, id := range ids[0] {
			if !in(ids[1], id) && (!found || id < first) {
				first, found = id, true
			}
		}
	}
	return first, found
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

// TestDependencyEditsRebuildEdgeTable: with G_d edited under a running
// runtime — a dependency added, one removed, a VM removed with its edges,
// a peer the engine does not step — the engine rebuilds its edge table at
// exactly the periods that follow an edit, while VMs change rack under it.
// TestShardedMatchesReference/dependency-edits pins the same run's
// decisions.
func TestDependencyEditsRebuildEdgeTable(t *testing.T) {
	sc := scenario(t, "dependency-edits")
	r := drive(sc.build(t, 2))
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

// TestShardedDeterministicAcrossShardCounts pins the determinism argument
// directly: the shard count is a pure performance knob, invisible in
// results, also in the periods that migrate.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	sc := scenario(t, "seed-3")
	base := driveEquiv(t, sc.build(t, 1), sc)
	if migrated(base) == 0 {
		t.Fatalf("%s raised no migrations; the manage phase never ran", sc.name)
	}
	for _, shards := range []int{2, 3, 8} {
		got := driveEquiv(t, sc.build(t, shards), sc)
		for i := range base {
			sameStats(t, "shard-count", base[i], got[i])
		}
	}
}

// TestSnapshotRestoreShardCountChange runs 6 steps on a 3-shard runtime,
// snapshots, restores onto a 7-shard runtime, runs 4 more, and requires
// the concatenated trajectory to be bit-identical to a straight 10-step
// run — the shard partition is orthogonal to snapshot state. Both halves
// migrate, so the restored runtime carries moved VMs and opened shims and
// then moves more.
func TestSnapshotRestoreShardCountChange(t *testing.T) {
	const before, after = 6, 4
	sc := scenario(t, "seed-13")
	if sc.steps != before+after {
		t.Fatalf("%s runs %d periods, want %d", sc.name, sc.steps, before+after)
	}

	wantHist := driveEquiv(t, sc.build(t, 2), sc)
	if migrated(wantHist[:before]) == 0 || migrated(wantHist[before:]) == 0 {
		t.Fatalf("%s must migrate before and after period %d", sc.name, before)
	}

	part := sc.build(t, 3)
	gotHist := append([]StepStats(nil), drivePeriods(t, part, sc, 0, before, nil, nil)...)

	snap, err := part.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	resumed := drive(sc.restore(t, blob, 7))
	for i := 0; i < after; i++ {
		s, err := resumed.Step()
		if err != nil {
			t.Fatal(err)
		}
		gotHist = append(gotHist, s)
	}

	if len(gotHist) != len(wantHist) {
		t.Fatalf("trajectory lengths: got %d, want %d", len(gotHist), len(wantHist))
	}
	for i := range wantHist {
		sameStats(t, "restart", wantHist[i], gotHist[i])
	}
}

// migrated is the number of VMs hist's periods moved.
func migrated(hist []StepStats) int {
	n := 0
	for _, s := range hist {
		n += s.Migrations
	}
	return n
}

// TestSnapshotRestoreSurgeRegime: a surge-kind runtime snapshots its trace
// options whole, reporters reopened from the restored runtime's generator
// continue the same regime schedule (and the same correlated rack bursts)
// bit-exactly, and a restore that asks for a different family is refused.
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
	resumed := drive(restored)
	for i := 0; i < after; i++ {
		s, err := resumed.Step()
		if err != nil {
			t.Fatal(err)
		}
		gotHist = append(gotHist, s)
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
// over an alerting run the engine — which hands RefreshSources the racks
// whose shims are about to price moves — sweeps fewer rows than a full
// Refresh in every alerting period would (cost.New's eager rows plus one
// row per rack per period with a server or ToR alert to manage), and its
// queries find the rows they need already swept.
// TestShardedMatchesReference pins the decisions.
func TestManagePhaseSweepsOnlyAskingRacks(t *testing.T) {
	sc := equivScenario{name: "surge", steps: 20}
	r := buildEquivRuntime(t, 23, Options{Traces: traces.Options{Kind: traces.Surge, // the surge row's seed, which migrates
		Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}})
	eager, _ := r.Model.SweepCounts()
	migrations, alerting := 0, 0
	for _, s := range driveEquiv(t, r, sc) {
		migrations += s.Migrations
		if s.ServerAlerts+s.ToRAlerts > 0 {
			alerting++
		}
	}
	if migrations == 0 {
		t.Fatal("scenario raised no migrations; nothing priced")
	}
	full := eager + uint64(alerting*len(r.Cluster.Graph.RackNodes()))
	ahead, late := r.Model.SweepCounts()
	if ahead+late >= full {
		t.Fatalf("engine swept %d+%d rows, a full Refresh %d: nothing saved", ahead, late, full)
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
	const periods, wantPrepared = 160, 260
	parts := func(t *testing.T, seed int64) (*dcn.Cluster, *cost.Model) {
		cluster, model := buildParts(t, 8)
		cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: seed})
		return cluster, model
	}
	r := drive(buildEquivOn(t, parts, 3, Options{Shards: 4, Traces: traces.Options{Kind: traces.Surge,
		Surge: traces.SurgeParams{MeanDwell: 4, Intensity: 1.5}}}))
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

// TestDeepPoolsRestoreEveryPeriod: deep pools in fixed state survive a
// restore at any point of their compaction cycle. A -deep run of 200
// periods — the pools fit at period 24 and cut their histories back to 24
// values every 24 periods after — is split after every period, its
// snapshot round-tripped through JSON and restored onto a fresh fabric,
// alternately at 1 and 5 shards, and run on from there. Every period must
// give the straight run's StepStats, the runtime's invariants must hold
// after it, and the snapshot after it must be the straight run's byte for
// byte: it carries each pool's refit window and folds, so forecasts that
// part show there at once.
func TestDeepPoolsRestoreEveryPeriod(t *testing.T) {
	const fitAfter = 24
	sc := equivScenario{name: "deep-long", steps: 200, mutate: func(o *Options) {
		o.DeepPredict = true
		o.DeepFitAfter = fitAfter
	}}
	doc := func(r *Runtime) []byte {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	straight := sc.build(t, 2)
	want := scenarioDigest{Name: sc.name}
	var docs []string
	drivePeriods(t, straight, sc, 0, sc.steps, &want, func(int) { docs = append(docs, digest(doc(straight))) })
	want.finish(t, straight)
	if want.Covers.DeepPools != len(straight.Cluster.Racks) {
		t.Fatalf("%d of %d racks have a fitted pool after %d periods", want.Covers.DeepPools, len(straight.Cluster.Racks), sc.steps)
	}

	r := sc.build(t, 1)
	got := scenarioDigest{Name: sc.name}
	for done := 0; done < sc.steps; done++ {
		drivePeriods(t, r, sc, done, done+1, &got, nil)
		blob := doc(r)
		if d := digest(blob); d != docs[done] {
			t.Fatalf("snapshot after period %d is %s, the straight run's %s", done+1, d, docs[done])
		}
		r.Close()
		r = sc.restore(t, blob, 1+4*(done%2))
	}
	got.finish(t, r)
	sameDigest(t, "split and restored after every period", want, got)
}
