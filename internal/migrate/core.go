package migrate

import (
	"fmt"
	"slices"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/matching"
	"sheriff/internal/obs"
)

// Tally holds what every migration result counts. Report, MigrationResult
// and DistResult embed it, so one Add folds any of them into any other.
type Tally struct {
	Migrations  []Migration
	TotalCost   float64
	SearchSpace int // candidate (VM, destination) pairs examined
	Rejected    int // REQUEST handshakes answered with REJECT
	// Preemptions and Requeued are always 0: Alg. 4 answers a REQUEST with
	// ACK or REJECT and never evicts or parks a VM. They stay because the
	// bench harness (bench/workloads.go, bench/pipeline.go) still reads them.
	Preemptions int
	Requeued    int
	Unplaced    []*dcn.VM // VMs no destination would accept
}

// Add folds o into t.
func (t *Tally) Add(o *Tally) {
	t.Migrations = append(t.Migrations, o.Migrations...)
	t.TotalCost += o.TotalCost
	t.SearchSpace += o.SearchSpace
	t.Rejected += o.Rejected
	t.Unplaced = append(t.Unplaced, o.Unplaced...)
}

// The stage of the Alg. 4 decision that refused a REQUEST.
const (
	causePolicy   = "policy"
	causeCapacity = "capacity"
	causeRace     = "race" // granted, but the placement itself failed
)

// core is the management protocol of Sec. V.B written once: the Alg. 3
// matching step and the Alg. 4 grant, counting into one Tally. Migrate and
// DistributedVMMigration each build one on their stack and differ only in
// how a matched pair travels to the deciding delegation node: a call, or
// bus messages.
type core struct {
	c *dcn.Cluster
	m *cost.Model
	// admit is the call's admission hook. Nil allows.
	admit RequestPolicy
	rec   *obs.Recorder
	tally *Tally

	// scratch is match's memory. A shim's cores share the shim's, across
	// calls; a standalone Migrate or DistributedVMMigration builds one on
	// the first match and keeps it across the rounds of the call. A copy of
	// a core shares it, stamp and all.
	scratch *matchScratch
}

// matchScratch is the memory of Alg. 3's matching step: the racks of the
// peers of the VM match is pricing and, by rack index, that VM's Eqn. (1)
// price — current iff its stamp is the VM's — then the two matrices price
// fills and the Hungarian solver's workspace. The matrices and the
// assignment match returns stay valid until the next match on the same
// scratch.
type matchScratch struct {
	peerRacks []int
	prices    []rackPrice
	stamp     int
	priced    int // rack prices computed (each is one TransmissionCost)

	flat   []float64   // the costs rows, then the bases rows
	rows   [][]float64 // costs, then bases
	solver matching.Workspace
}

// rackPrice is what moving one VM into one rack costs; ok is false when no
// path to the rack clears the bandwidth floor.
type rackPrice struct {
	stamp int
	base  float64
	ok    bool
}

// match is Alg. 3's matching step: price every (VM, host) pair the caller
// does not bar and solve the minimum-weight assignment. assign[i] indexes
// hosts (-1: unmatched) and bases holds the cost to charge on commit;
// assign is nil when no pair is feasible at all. barred, which may be nil,
// is asked about pairs by index into vms and hosts.
func (k *core) match(vms []*dcn.VM, hosts []*dcn.Host, barred func(vi, hi int) bool) (assign []int, bases [][]float64, err error) {
	costs, bases, feasible := k.price(vms, hosts, barred)
	if !feasible {
		return nil, nil, nil
	}
	sol, err := k.scratch.solver.Solve(costs)
	if err != nil {
		return nil, nil, fmt.Errorf("migrate: matching: %w", err)
	}
	return sol.Assign, bases, nil
}

// price evaluates the edges of Alg. 3's bipartite graph G_m:
// costs[i][j] is the matching weight of moving vms[i] to hosts[j], its
// Eqn. (1) cost — Forbidden when the pair is barred, the host is the VM's
// own, it lacks the room (Alg. 4's capacity check), it holds a VM dependent
// on this one, or no path to its rack clears the bandwidth floor — and
// bases[i][j] the cost charged on commit, zero where the weight is
// Forbidden. Eqn. (1) depends on the destination rack only, so it is
// evaluated once per (VM, rack), when the first host of the rack gets that
// far. Both matrices are rows of the scratch's one array, overwritten by
// the next call.
func (k *core) price(vms []*dcn.VM, hosts []*dcn.Host, barred func(vi, hi int) bool) (costs, bases [][]float64, feasible bool) {
	nv, nh := len(vms), len(hosts)
	if k.scratch == nil {
		k.scratch = &matchScratch{}
	}
	sc := k.scratch
	if sc.prices == nil {
		sc.prices = make([]rackPrice, len(k.c.Racks))
	}
	sc.flat = slices.Grow(sc.flat[:0], 2*nv*nh)[:2*nv*nh]
	sc.rows = slices.Grow(sc.rows[:0], 2*nv)[:2*nv]
	clear(sc.flat[nv*nh:]) // a base left from the last call must not leak
	costs, bases = sc.rows[:nv:nv], sc.rows[nv:]
	for i := range vms {
		costs[i] = sc.flat[i*nh : (i+1)*nh : (i+1)*nh]
		bases[i] = sc.flat[(nv+i)*nh : (nv+i+1)*nh : (nv+i+1)*nh]
	}
	for i, vm := range vms {
		sc.stamp++
		sc.peerRacks = k.c.Deps.PeerRacks(k.c, vm.ID, sc.peerRacks[:0])
		for j, h := range hosts {
			costs[i][j] = matching.Forbidden
			if barred != nil && barred(i, j) {
				continue
			}
			if h == vm.Host() || !Request(vm, h) { // must actually move, and fit
				continue
			}
			if _, conflict := h.Conflict(k.c.Deps, vm.ID); conflict {
				continue
			}
			base, ok := k.rackBase(vm, h.Rack())
			if !ok {
				continue
			}
			bases[i][j], costs[i][j] = base, base
			if base != matching.Forbidden {
				feasible = true
			}
		}
	}
	return costs, bases, feasible
}

// rackBase is the Eqn. (1) cost of moving the VM match is pricing into the
// rack, computed on first request.
func (k *core) rackBase(vm *dcn.VM, dst *dcn.Rack) (base float64, ok bool) {
	sc := k.scratch
	p := &sc.prices[dst.Index]
	if p.stamp != sc.stamp {
		p.stamp = sc.stamp
		sc.priced++
		var err error
		p.base, err = k.m.RackMigration(vm.Host().Rack(), dst, vm.Capacity, sc.peerRacks)
		p.ok = err == nil
	}
	return p.base, p.ok
}

// admits is the Alg. 4 decision without its effect: the call's admission
// policy, then the FCFS capacity check. cause names the refusing stage.
func (k *core) admits(vm *dcn.VM, dst *dcn.Host) (ok bool, cause string) {
	if k.admit != nil && !k.admit(vm, dst) {
		return false, causePolicy
	}
	if !Request(vm, dst) {
		return false, causeCapacity
	}
	return true, ""
}

// grant answers one REQUEST at the destination's delegation node: admits,
// then the move itself.
func (k *core) grant(vm *dcn.VM, dst *dcn.Host) (ok bool, cause string) {
	if ok, cause = k.admits(vm, dst); !ok {
		return false, cause
	}
	if err := k.c.Move(vm, dst); err != nil {
		return false, causeRace // e.g. a dependency raced in
	}
	return true, ""
}

// request is the whole handshake where source and destination share an
// address space: REQUEST, grant, then ACK with the migration tallied, or
// REJECT with the refusing stage.
func (k *core) request(vm *dcn.VM, dst *dcn.Host, moveCost float64, shim, round int) bool {
	k.rec.Record(obs.Event{Kind: obs.KindRequest, Round: round, Shim: shim, VM: vm.ID, Host: dst.ID, Value: moveCost})
	from := vm.Host()
	ok, cause := k.grant(vm, dst)
	if !ok {
		k.tally.Rejected++
		if k.rec.Enabled() {
			k.rec.Record(obs.Event{Kind: obs.KindReject, Round: round, Shim: shim, VM: vm.ID, Host: dst.ID,
				Value: moveCost, Attrs: map[string]string{"cause": cause}})
		}
		return false
	}
	k.tally.Migrations = append(k.tally.Migrations, Migration{VM: vm, From: from, To: dst, Cost: moveCost})
	k.tally.TotalCost += moveCost
	k.rec.Record(obs.Event{Kind: obs.KindAck, Round: round, Shim: shim, VM: vm.ID, Host: dst.ID, Value: moveCost})
	return true
}

// exclude bars one (VM, destination key) pair from later matchings.
func exclude(m *map[int]map[int]bool, vmID, key int) {
	keys := made(m)[vmID]
	if keys == nil {
		keys = make(map[int]bool)
		(*m)[vmID] = keys
	}
	keys[key] = true
}

// made returns *m, making it first when it is nil. The shim's and
// sequential's bookkeeping maps are made on their first write: a nil map
// reads as empty, and most calls never write most of them.
func made[K comparable, V any](m *map[K]V) map[K]V {
	if *m == nil {
		*m = make(map[K]V)
	}
	return *m
}
