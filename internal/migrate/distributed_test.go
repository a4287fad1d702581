package migrate

import (
	"runtime"
	"testing"

	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
)

func distSetup(t *testing.T, lossRate float64, seed int64) (*fixture, []*Shim, *comm.Bus) {
	t.Helper()
	fx := newFixture(t, 4, 2)
	var shims []*Shim
	for _, r := range fx.cluster.Racks {
		s, err := NewShim(fx.cluster, fx.model, r, DefaultParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		shims = append(shims, s)
	}
	inj, err := faults.New(faults.Plan{Seed: seed, Drop: lossRate})
	if err != nil {
		t.Fatal(err)
	}
	return fx, shims, comm.NewBus(comm.Options{Injector: inj})
}

func TestDistributedMigrationReliableBus(t *testing.T) {
	fx, shims, bus := distSetup(t, 0, 1)
	h := fx.cluster.Racks[0].Hosts[0]
	var vms []*dcn.VM
	for i := 0; i < 3; i++ {
		vm, err := fx.cluster.AddVM(h, 25, float64(i+1), false)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	sets := make([][]*dcn.VM, len(shims))
	sets[0] = vms
	res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 3 {
		t.Fatalf("migrations = %d, want 3 (unplaced %d)", len(res.Migrations), len(res.Unplaced))
	}
	if res.TotalCost <= 0 || res.SearchSpace <= 0 || res.Rounds < 1 {
		t.Fatalf("result = %+v", res)
	}
	for _, vm := range vms {
		if vm.Host() == h {
			t.Fatal("VM did not move")
		}
	}
}

func TestDistributedMigrationSurvivesMessageLoss(t *testing.T) {
	fx, shims, bus := distSetup(t, 0.3, 2)
	h := fx.cluster.Racks[0].Hosts[0]
	var vms []*dcn.VM
	for i := 0; i < 3; i++ {
		vm, err := fx.cluster.AddVM(h, 25, float64(i+1), false)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	sets := make([][]*dcn.VM, len(shims))
	sets[0] = vms
	res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{MaxRounds: 60})
	if err != nil {
		t.Fatal(err)
	}
	// With 30% loss the protocol must still converge via retransmits.
	if len(res.Migrations) != 3 {
		t.Fatalf("migrations = %d under loss (retransmits %d, unplaced %d)",
			len(res.Migrations), res.Retransmits, len(res.Unplaced))
	}
	if res.Retransmits == 0 {
		t.Log("no retransmits at this seed (possible but unlikely)")
	}
	// No VM may be double-counted or lost.
	seen := map[int]bool{}
	for _, m := range res.Migrations {
		if seen[m.VM.ID] {
			t.Fatalf("VM %d migrated twice in the log", m.VM.ID)
		}
		seen[m.VM.ID] = true
	}
}

func TestDistributedMigrationContention(t *testing.T) {
	fx, shims, bus := distSetup(t, 0, 3)
	// Racks 0 and 1 (same pod) each shed one 60-cap VM; each neighbor
	// host can hold only one.
	a, err := fx.cluster.AddVM(fx.cluster.Racks[0].Hosts[0], 60, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.cluster.AddVM(fx.cluster.Racks[1].Hosts[0], 60, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-load the pod's other hosts so destinations are scarce.
	for _, h := range []*dcn.Host{fx.cluster.Racks[0].Hosts[1], fx.cluster.Racks[1].Hosts[1]} {
		if _, err := fx.cluster.AddVM(h, 50, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	sets := make([][]*dcn.VM, len(shims))
	sets[0] = []*dcn.VM{a}
	sets[1] = []*dcn.VM{b}
	if _, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{}); err != nil {
		t.Fatal(err)
	}
	// Invariants regardless of who won: no oversubscription, no VM on two
	// hosts, no loss.
	if err := fx.cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Host() == nil || b.Host() == nil {
		t.Fatal("VM lost")
	}
}

func TestDistributedMigrationShapeValidation(t *testing.T) {
	fx, shims, bus := distSetup(t, 0, 4)
	_ = fx
	if _, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, nil, DistOptions{}); err == nil {
		t.Fatal("mismatched set count accepted")
	}
}

func TestDistributedMigrationEmptySets(t *testing.T) {
	fx, shims, bus := distSetup(t, 0, 5)
	sets := make([][]*dcn.VM, len(shims))
	res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 0 || res.TotalCost != 0 || res.Rounds != 1 {
		t.Fatalf("empty run = %+v", res)
	}
}

// TestDistributedAllocsDoNotGrowWithShims pins the protocol's bookkeeping
// to tables built once per call: on Fat-Tree 8, a call with 32 one-VM
// shims allocates about as often as one with 8. Every host first takes
// and loses one VM, so its resident slice has room, the moves themselves
// allocate nothing, and the count is the protocol's.
func TestDistributedAllocsDoNotGrowWithShims(t *testing.T) {
	allocs := func(shimCount int) uint64 {
		fx := newFixture(t, 8, 2)
		for _, h := range fx.cluster.Hosts() {
			vm, err := fx.cluster.AddVM(h, 1, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			fx.cluster.Remove(vm)
		}
		shims := make([]*Shim, shimCount)
		sets := make([][]*dcn.VM, shimCount)
		for i, r := range fx.cluster.Racks[:shimCount] {
			s, err := NewShim(fx.cluster, fx.model, r, DefaultParams(), nil)
			if err != nil {
				t.Fatal(err)
			}
			vm, err := fx.cluster.AddVM(r.Hosts[0], 20, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			shims[i], sets[i] = s, []*dcn.VM{vm}
		}
		bus := comm.NewBus(comm.Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := DistributedVMMigration(fx.cluster, fx.model, bus, shims, sets, DistOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Migrations) != shimCount {
			t.Fatalf("%d shims placed %d VMs", shimCount, len(res.Migrations))
		}
		return after.Mallocs - before.Mallocs
	}
	few, many := allocs(8), allocs(32)
	t.Logf("8 shims: %d allocs, 32 shims: %d", few, many)
	if many >= few+16 {
		t.Fatalf("a call allocates %d times with 32 shims against %d with 8: the bookkeeping grows with the shims", many, few)
	}
}
