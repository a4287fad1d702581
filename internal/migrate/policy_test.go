package migrate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/obs"
	"sheriff/internal/placement"
)

// alertEveryNth marks every nth VM (by ID order) as alerted and returns
// them — a deterministic stand-in for the predictor, mirrored exactly
// across identically populated clusters.
func alertEveryNth(c *dcn.Cluster, n int) []*dcn.VM {
	vms := c.VMs()
	sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
	var out []*dcn.VM
	for i, vm := range vms {
		if i%n == 0 {
			vm.Alert = 0.9 + 0.01*float64(i%7)
			out = append(out, vm)
		}
	}
	return out
}

// migResultSignature flattens a result into a comparable string: exact
// migration sequence (VM, destination, cost) plus the counters.
func migResultSignature(res *MigrationResult) string {
	var b strings.Builder
	for _, mg := range res.Migrations {
		fmt.Fprintf(&b, "%d->%d@%.9f;", mg.VM.ID, mg.To.ID, mg.Cost)
	}
	fmt.Fprintf(&b, "|cost=%.9f|space=%d|rej=%d|pre=%d|req=%d|ret=%d|unp=",
		res.TotalCost, res.SearchSpace, res.Rejected, res.Preemptions, res.Requeued, res.Retried)
	for _, vm := range res.Unplaced {
		fmt.Fprintf(&b, "%d,", vm.ID)
	}
	return b.String()
}

// decide is the Alg. 4 decision under these options, as the frozen oracle
// in reference_test.go asks for it; the product goes through core.grant,
// which shares the decision and adds the move.
func (o *MigrationOptions) decide(vm *dcn.VM, dst *dcn.Host) (ok bool, cause string) {
	k := core{pol: policyOrSheriff(o.Placement), admit: o.Policy}
	return k.admits(vm, dst, nil)
}

// TestMigrateMatchesReference pins the tentpole equivalence guarantee:
// Migrate with default options (nil placement policy, no preemption, no
// queue) is bit-exact with the frozen pre-policy implementation in
// reference_test.go — same migrations in the same order with the same costs,
// same totals, same search space, same unplaced set — on every seed.
func TestMigrateMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11, 42} {
		for _, forbid := range []bool{false, true} {
			buildOne := func() (*fixture, []*dcn.VM) {
				fx := newFixture(t, 4, 2)
				fx.cluster.Populate(dcn.PopulateOptions{
					VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 30,
					DependencyProb: 0.2, Seed: seed,
				})
				return fx, alertEveryNth(fx.cluster, 5)
			}
			fxA, fA := buildOne()
			fxB, fB := buildOne()
			o := MigrationOptions{ForbidSameRack: forbid, Shim: ShimUnknown}
			got, err := Migrate(fxA.cluster, fxA.model, fA, fxA.cluster.Hosts(), o)
			if err != nil {
				t.Fatalf("seed %d forbid %v: Migrate: %v", seed, forbid, err)
			}
			want, err := referenceVMMigration(fxB.cluster, fxB.model, fB, fxB.cluster.Hosts(), o)
			if err != nil {
				t.Fatalf("seed %d forbid %v: reference: %v", seed, forbid, err)
			}
			if gs, ws := migResultSignature(got), migResultSignature(want); gs != ws {
				t.Errorf("seed %d forbid %v: Migrate diverged from the pre-policy reference\n got: %s\nwant: %s",
					seed, forbid, gs, ws)
			}
		}
	}
}

// TestPolicyDeterminismSequential runs every grid policy twice through the
// sequential entry point on identically built clusters and demands
// bit-identical results — the seeded-reproducibility acceptance criterion.
func TestPolicyDeterminismSequential(t *testing.T) {
	run := func(kind placement.Kind) string {
		fx := newFixture(t, 4, 2)
		fx.cluster.Populate(dcn.PopulateOptions{
			VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 25,
			DependencyProb: 0.1, Seed: 6,
		})
		f := alertEveryNth(fx.cluster, 6)
		pol, err := placement.PolicyOptions{Kind: kind, Seed: 9}.New()
		if err != nil {
			t.Fatal(err)
		}
		q := NewRetryQueue()
		res, err := Migrate(fx.cluster, fx.model, f, fx.cluster.Hosts(), MigrationOptions{
			ForbidSameRack: true, Shim: ShimUnknown,
			Placement: pol, Preempt: PreemptOptions{Enabled: true}, Queue: q,
		})
		if err != nil {
			t.Fatal(err)
		}
		return migResultSignature(res)
	}
	for _, kind := range placement.Kinds() {
		a, b := run(kind), run(kind)
		if a != b {
			t.Errorf("%s: sequential run not reproducible\n a: %s\n b: %s", kind, a, b)
		}
	}
}

// TestPolicyDeterminismDistributed runs every grid policy twice through
// the message-passing protocol over a clean seeded bus.
func TestPolicyDeterminismDistributed(t *testing.T) {
	run := func(kind placement.Kind) string {
		fx := newFixture(t, 4, 2)
		fx.cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 25, Seed: 12})
		var shims []*Shim
		for _, r := range fx.cluster.Racks {
			s, err := NewShim(fx.cluster, fx.model, r, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			shims = append(shims, s)
		}
		f := alertEveryNth(fx.cluster, 7)
		sets := make([][]*dcn.VM, len(shims))
		for _, vm := range f {
			idx := vm.Host().Rack().Index
			sets[idx] = append(sets[idx], vm)
		}
		bus, err := comm.NewBus(comm.Options{Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		q := NewRetryQueue()
		res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{
			Seed:      12,
			Placement: placement.PolicyOptions{Kind: kind, Seed: 9},
			Preempt:   PreemptOptions{Enabled: true},
			Queue:     q,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, mg := range res.Migrations {
			fmt.Fprintf(&b, "%d->%d@%.9f;", mg.VM.ID, mg.To.ID, mg.Cost)
		}
		fmt.Fprintf(&b, "|cost=%.9f|rej=%d|pre=%d|req=%d|unp=%d",
			res.TotalCost, res.Rejected, res.Preemptions, res.Requeued, len(res.Unplaced))
		return b.String()
	}
	for _, kind := range placement.Kinds() {
		a, b := run(kind), run(kind)
		if a != b {
			t.Errorf("%s: distributed run not reproducible\n a: %s\n b: %s", kind, a, b)
		}
	}
}

// TestSequentialPreemptThenRetry is the fail-queue round-trip: a critical
// VM with no feasible destination evicts a low-severity resident (round
// N), the victim parks in the queue, and the next management round (N+1)
// drains and places it — nothing is lost, nothing stays unplaced.
func TestSequentialPreemptThenRetry(t *testing.T) {
	fx := newFixture(t, 4, 1)
	h0 := fx.cluster.Racks[0].Hosts[0]
	h1 := fx.cluster.Racks[1].Hosts[0]
	h2 := fx.cluster.Racks[2].Hosts[0]

	in, err := fx.cluster.AddVM(h0, 40, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Alert = 0.96                              // critical tier
	ds, err := fx.cluster.AddVM(h1, 30, 9, true) // delay-sensitive: not evictable
	if err != nil {
		t.Fatal(err)
	}
	victim, err := fx.cluster.AddVM(h1, 60, 1, false) // h1 free = 10 < 40
	if err != nil {
		t.Fatal(err)
	}

	q := NewRetryQueue()
	// Round N: only h1 is offered. The incoming VM does not fit until the
	// victim is evicted; the victim itself (severity none) may not preempt
	// and h1 is excluded for it (no ping-pong), so it parks.
	res1, err := Migrate(fx.cluster, fx.model, []*dcn.VM{in}, []*dcn.Host{h1}, MigrationOptions{
		Shim: 0, Preempt: PreemptOptions{Enabled: true}, Queue: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Preemptions != 1 || len(res1.Evicted) != 1 || res1.Evicted[0] != victim {
		t.Fatalf("round N: want 1 eviction of the low-value resident, got %+v", res1)
	}
	if in.Host() != h1 {
		t.Fatalf("round N: critical VM on %v, want h1", in.Host())
	}
	if ds.Host() != h1 {
		t.Fatal("round N: delay-sensitive resident was disturbed")
	}
	if res1.Requeued != 1 || q.Len() != 1 || len(res1.Unplaced) != 0 {
		t.Fatalf("round N: victim should be parked (requeued=1, unplaced=0), got requeued=%d queue=%d unplaced=%d",
			res1.Requeued, q.Len(), len(res1.Unplaced))
	}
	if victim.Host() != nil {
		t.Fatalf("round N: victim should be detached, is on %v", victim.Host())
	}

	// Round N+1: the queue drains into a region with room; the victim
	// lands and the queue empties.
	res2, err := Migrate(fx.cluster, fx.model, nil, []*dcn.Host{h2}, MigrationOptions{
		Shim: 0, Preempt: PreemptOptions{Enabled: true}, Queue: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retried != 1 || len(res2.Migrations) != 1 {
		t.Fatalf("round N+1: want the parked victim retried and placed, got %+v", res2)
	}
	if victim.Host() != h2 {
		t.Fatalf("round N+1: victim on %v, want h2", victim.Host())
	}
	if q.Len() != 0 || len(res2.Unplaced) != 0 {
		t.Fatalf("round N+1: queue=%d unplaced=%d, want 0/0", q.Len(), len(res2.Unplaced))
	}
}

// TestSequentialPreemptRollback: with no fail-queue a victim that finds no
// other home goes back where it was if the slot is still open, and the
// result then says, in both places, that nothing was evicted.
func TestSequentialPreemptRollback(t *testing.T) {
	fx := newFixture(t, 4, 1)
	h0 := fx.cluster.Racks[0].Hosts[0]
	h1 := fx.cluster.Racks[1].Hosts[0]
	in, err := fx.cluster.AddVM(h0, 40, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Alert = 0.96
	victim, err := fx.cluster.AddVM(h1, 70, 1, false) // h1 free 30 < 40
	if err != nil {
		t.Fatal(err)
	}
	// Only h1 is offered, and admission refuses the incoming VM there: the
	// eviction makes room nobody may use, and the victim has nowhere to go.
	res, err := Migrate(fx.cluster, fx.model, []*dcn.VM{in}, []*dcn.Host{h1}, MigrationOptions{
		Shim:    0,
		Policy:  func(vm *dcn.VM, dst *dcn.Host) bool { return vm != in },
		Preempt: PreemptOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if victim.Host() != h1 || in.Host() != h0 {
		t.Fatalf("victim on %v, incoming on %v; want both where they started", victim.Host(), in.Host())
	}
	if res.Preemptions != 0 || len(res.Evicted) != 0 {
		t.Fatalf("rolled-back eviction still reported: Preemptions=%d Evicted=%v", res.Preemptions, res.Evicted)
	}
	if len(res.Migrations) != 0 || len(res.Unplaced) != 2 {
		t.Fatalf("want no migrations and both VMs unplaced, got %d and %d", len(res.Migrations), len(res.Unplaced))
	}
}

// TestDistributedPreemptThenRetry stages the destination-side version: two
// critical VMs race for one destination host's capacity, FCFS grants the
// first, the second's refusal triggers a preemption, the victim parks in
// the protocol-wide queue tagged with its rack, and the next protocol run
// drains it back through its own shim and places it.
func TestDistributedPreemptThenRetry(t *testing.T) {
	fx := newFixture(t, 6, 1) // pod 0 = racks 0,1,2: shims 0 and 1 share rack 2
	h0 := fx.cluster.Racks[0].Hosts[0]
	h1 := fx.cluster.Racks[1].Hosts[0]
	h2 := fx.cluster.Racks[2].Hosts[0]

	in0, err := fx.cluster.AddVM(h0, 40, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	in0.Alert = 0.96
	if _, err := fx.cluster.AddVM(h0, 55, 9, true); err != nil { // h0 free 5
		t.Fatal(err)
	}
	in1, err := fx.cluster.AddVM(h1, 40, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	in1.Alert = 0.97
	if _, err := fx.cluster.AddVM(h1, 55, 9, true); err != nil { // h1 free 5
		t.Fatal(err)
	}
	ds2, err := fx.cluster.AddVM(h2, 20, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := fx.cluster.AddVM(h2, 35, 1, false) // h2 free 45
	if err != nil {
		t.Fatal(err)
	}

	var shims []*Shim
	for _, r := range fx.cluster.Racks[:3] {
		s, err := NewShim(fx.cluster, fx.model, r, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		shims = append(shims, s)
	}
	q := NewRetryQueue()
	opts := DistOptions{Seed: 2, Preempt: PreemptOptions{Enabled: true}, Queue: q}

	// Run 1: both alerted VMs can only go to h2 (free 45); the second
	// REQUEST finds free 5 and evicts the 35-cap low-value resident.
	bus1, err := comm.NewBus(comm.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := DistributedVMMigration(fx.cluster, fx.model, bus1, shims,
		[][]*dcn.VM{{in0}, {in1}, nil}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Preemptions != 1 {
		t.Fatalf("run 1: want 1 destination-side preemption, got %d", res1.Preemptions)
	}
	if in0.Host() != h2 || in1.Host() != h2 {
		t.Fatalf("run 1: both critical VMs should land on h2, got %v and %v", in0.Host(), in1.Host())
	}
	if ds2.Host() != h2 {
		t.Fatal("run 1: delay-sensitive resident was disturbed")
	}
	if victim.Host() != nil || q.Len() != 1 {
		t.Fatalf("run 1: victim should be detached and parked, host=%v queue=%d", victim.Host(), q.Len())
	}
	if len(res1.Unplaced) != 0 {
		t.Fatalf("run 1: unplaced = %d, want 0", len(res1.Unplaced))
	}

	// Run 2: no fresh alerts; the queue routes the victim back through
	// shim 2, whose region (racks 0 and 1, each with free 45 now) has room.
	bus2, err := comm.NewBus(comm.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := DistributedVMMigration(fx.cluster, fx.model, bus2, shims,
		make([][]*dcn.VM, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retried != 1 {
		t.Fatalf("run 2: want the parked victim drained (retried=1), got %d", res2.Retried)
	}
	if victim.Host() == nil {
		t.Fatal("run 2: victim still homeless")
	}
	if q.Len() != 0 || len(res2.Unplaced) != 0 {
		t.Fatalf("run 2: queue=%d unplaced=%d, want 0/0", q.Len(), len(res2.Unplaced))
	}
}

// TestPolicyTraceGolden pins the exact JSONL event sequence of a seeded
// preempt-and-retry scenario — request/reject/preempt/ack/requeue then
// retry/request/ack — so any change to the preemption order, the queue
// protocol, or the new event kinds shows up as a golden diff. Regenerate
// with: go test ./internal/migrate/ -run TestPolicyTraceGolden -update
func TestPolicyTraceGolden(t *testing.T) {
	rec, err := obs.New(obs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixture(t, 4, 1)
	hA := fx.cluster.Racks[1].Hosts[0]
	hB := fx.cluster.Racks[2].Hosts[0]
	hC := fx.cluster.Racks[3].Hosts[0]

	in, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 40, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Alert = 0.96
	if _, err := fx.cluster.AddVM(hA, 50, 9, true); err != nil { // hA free 50, resident not evictable
		t.Fatal(err)
	}
	if _, err := fx.cluster.AddVM(hB, 30, 9, true); err != nil { // delay-sensitive
		t.Fatal(err)
	}
	victim, err := fx.cluster.AddVM(hB, 60, 1, false) // hB free 10
	if err != nil {
		t.Fatal(err)
	}

	q := NewRetryQueue()
	// Round 1: the admission policy vetoes the feasible hA, forcing a
	// reject; the rebuilt matrix is infeasible, so preemption evicts the
	// hB resident, the critical VM lands, and the victim parks.
	res1, err := Migrate(fx.cluster, fx.model, []*dcn.VM{in}, []*dcn.Host{hA, hB}, MigrationOptions{
		Shim:     0,
		Recorder: rec,
		Policy:   func(vm *dcn.VM, dst *dcn.Host) bool { return !(vm == in && dst == hA) },
		Preempt:  PreemptOptions{Enabled: true},
		Queue:    q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Preemptions != 1 || res1.Requeued != 1 || in.Host() != hB {
		t.Fatalf("round 1 did not preempt+park as staged: %+v (in on %v)", res1, in.Host())
	}
	// Round 2: the queue drains into an empty host; the victim places.
	res2, err := Migrate(fx.cluster, fx.model, nil, []*dcn.Host{hC}, MigrationOptions{
		Shim: 0, Recorder: rec, Queue: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retried != 1 || victim.Host() != hC {
		t.Fatalf("round 2 did not retry+place as staged: %+v (victim on %v)", res2, victim.Host())
	}

	var buf bytes.Buffer
	kinds := map[obs.Kind]bool{}
	for _, e := range rec.Events() {
		kinds[e.Kind] = true
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	for _, k := range []obs.Kind{obs.KindRequest, obs.KindReject, obs.KindPreempt,
		obs.KindAck, obs.KindRequeue, obs.KindRetry} {
		if !kinds[k] {
			t.Fatalf("trace has no %q event; kinds seen: %v", k, kinds)
		}
	}

	path := filepath.Join("testdata", "policy_trace.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, rec.Seq())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("policy trace diverges from golden: got %d bytes, want %d\nregenerate with -update if the change is intended",
			buf.Len(), len(want))
	}
}
