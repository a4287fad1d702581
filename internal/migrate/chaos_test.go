package migrate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/obs"
)

// chaosScenario builds a two-shim pod with VMs to relocate and a bus
// driven by the given fault plan, sharing one recorder across the wire
// and the protocol.
func chaosScenario(t *testing.T, plan faults.Plan, rec *obs.Recorder) (*fixture, []*Shim, [][]*dcn.VM, *comm.Bus) {
	t.Helper()
	fx := newFixture(t, 4, 2)
	var shims []*Shim
	for _, r := range fx.cluster.Racks[:2] {
		s, err := NewShim(fx.cluster, fx.model, r, DefaultParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		shims = append(shims, s)
	}
	var sets [][]*dcn.VM
	for ri, r := range fx.cluster.Racks[:2] {
		var set []*dcn.VM
		for k := 0; k < 3; k++ {
			vm, err := fx.cluster.AddVM(r.Hosts[0], 25, float64(2+ri+k), false)
			if err != nil {
				t.Fatal(err)
			}
			set = append(set, vm)
		}
		sets = append(sets, set)
	}
	// Rack 0's spare host is filled so its candidates must cross the
	// fabric — the faults in the plan then stand between them and any
	// destination.
	if _, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[1], 80, 1, false); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	return fx, shims, sets, comm.NewBus(comm.Options{Recorder: rec, Injector: inj})
}

// resiliencePlan is the acceptance scenario: 20% drop, duplication,
// reordering, a dead 0→1 link, and a 3-round partition cutting rack 0
// off from its region. The dead link starves rack 0's cross-rack
// requests until their retry budget exhausts, so the run must descend
// the full degradation ladder.
func resiliencePlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed:        seed,
		Drop:        0.2,
		DupRate:     0.25,
		ReorderRate: 0.3,
		Jitter:      1,
		Links:       []faults.LinkDrop{{From: 0, To: 1, Drop: 1}},
		Partitions:  []faults.Partition{{Name: "pod-cut", Start: 1, Rounds: 3, Nodes: []int{0}}},
	}
}

// TestChaosResilience pins the acceptance criterion: under drop +
// duplication + a partition window, the protocol leaves zero VMs
// permanently unplaced — the fallback ladder engages instead.
func TestChaosResilience(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, shims, sets, bus := chaosScenario(t, resiliencePlan(13), rec)
	res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{Recorder: rec, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("%d VMs permanently unplaced under chaos; fallback did not engage (fallbacks=%d)",
			len(res.Unplaced), res.Fallbacks)
	}
	if res.Fallbacks == 0 {
		t.Fatal("the dead link never forced the degradation ladder to engage")
	}
	want := 0
	for _, set := range sets {
		want += len(set)
	}
	if got := len(res.Migrations); got != want {
		t.Fatalf("placed %d of %d VMs", got, want)
	}
	// Every migrated VM must actually sit on a host with capacity intact.
	for _, mg := range res.Migrations {
		if mg.VM.Host() == nil {
			t.Fatalf("VM %d recorded as migrated but has no host", mg.VM.ID)
		}
	}
	for _, h := range fx.cluster.Hosts() {
		if h.Used() > h.Capacity+1e-9 {
			t.Fatalf("host %d over capacity: %v > %v", h.ID, h.Used(), h.Capacity)
		}
	}
}

// TestChaosDuplicateSuppression checks fabric duplication never
// double-applies a migration: a 60% dup plan still yields one migration
// per VM and a positive suppression count.
func TestChaosDuplicateSuppression(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, shims, sets, bus := chaosScenario(t, faults.Plan{Seed: 7, DupRate: 0.6}, rec)
	res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{Recorder: rec, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, mg := range res.Migrations {
		if seen[mg.VM.ID] {
			t.Fatalf("VM %d migrated twice", mg.VM.ID)
		}
		seen[mg.VM.ID] = true
	}
	if res.Suppressed == 0 {
		t.Fatal("60% duplication produced no suppressions")
	}
	if res.Suppressed != int(rec.Count(obs.KindSuppress)) {
		t.Fatalf("suppressed counter %d != %d suppress events", res.Suppressed, rec.Count(obs.KindSuppress))
	}
}

// TestChaosFallbackThenUnplaced pins the ladder's end: under a total
// partition with every host of the region full, each VM degrades to the
// fallback rung, and the rung, finding no room either, reports it
// unplaced — fallback events first, then one unplaced event per VM.
func TestChaosFallbackThenUnplaced(t *testing.T) {
	plan := faults.Plan{Seed: 1, Partitions: []faults.Partition{{Name: "all", Start: 0, Rounds: 1000, Nodes: []int{0, 1}}}}
	var events []obs.Event
	rec := recordTo(t, &events)
	fx, shims, sets, bus := chaosScenario(t, plan, rec)
	// The partition isolates both shims' racks from the rest of the
	// fabric but not from each other, and region hosts include the own
	// rack — so to force unplacement the VMs must not fit locally. Fill
	// the local hosts first.
	for _, r := range fx.cluster.Racks[:2] {
		for _, h := range r.Hosts {
			for h.Free() >= 25 {
				if _, err := fx.cluster.AddVM(h, h.Free(), 1, false); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets,
		DistOptions{Recorder: rec, MaxRounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := len(sets[0]) + len(sets[1])
	if len(res.Migrations) != 0 || len(res.Unplaced) != want || res.Fallbacks != want {
		t.Fatalf("%d migrations, %d unplaced, %d fallbacks; want 0, %d, %d",
			len(res.Migrations), len(res.Unplaced), res.Fallbacks, want, want)
	}
	var kinds []obs.Kind
	for _, e := range events {
		if e.Kind == obs.KindFallback || e.Kind == obs.KindUnplaced {
			kinds = append(kinds, e.Kind)
		}
	}
	if len(kinds) != 2*want {
		t.Fatalf("%d fallback and unplaced events, want %d", len(kinds), 2*want)
	}
	for i, k := range kinds {
		wantKind := obs.KindFallback
		if i >= want {
			wantKind = obs.KindUnplaced
		}
		if k != wantKind {
			t.Fatalf("event %d of the ladder is %s, want %s", i, k, wantKind)
		}
	}
}

// TestChaosTraceGolden pins the exact seeded chaos run: same seed + same
// fault plan must reproduce the JSONL trace bit for bit. Regenerate with:
// go test ./internal/migrate/ -run TestChaosTraceGolden -update
func TestChaosTraceGolden(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		rec, err := obs.New(obs.Options{Sinks: []obs.Sink{obs.NewJSONL(&buf)}})
		if err != nil {
			t.Fatal(err)
		}
		fx, shims, sets, bus := chaosScenario(t, resiliencePlan(13), rec)
		if _, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{Recorder: rec, Seed: 13}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := run()
	if again := run(); !bytes.Equal(got, again) {
		t.Fatal("two identical seeded chaos runs produced different traces")
	}
	// The scenario must exercise the fault taxonomy before the byte
	// comparison means anything.
	for _, want := range []string{`"kind":"dup"`, `"kind":"drop"`, `"cause":"partition:pod-cut"`,
		`"kind":"backoff"`, `"kind":"fallback"`, `"kind":"reorder"`} {
		if !bytes.Contains(got, []byte(want)) {
			t.Fatalf("chaos trace missing %s", want)
		}
	}

	path := filepath.Join("testdata", "chaos_trace.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos trace diverges from golden: got %d bytes, want %d\nregenerate with -update if the change is intended",
			len(got), len(want))
	}
}
