package migrate

import (
	"fmt"
	"slices"
	"strconv"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/matching"
	"sheriff/internal/obs"
	"sheriff/internal/placement"
)

// Tally holds what every migration result counts. Report, MigrationResult
// and DistResult embed it, so one Add folds any of them into any other.
type Tally struct {
	Migrations  []Migration
	TotalCost   float64
	SearchSpace int       // candidate (VM, destination) pairs examined
	Rejected    int       // REQUEST handshakes answered with REJECT
	Preemptions int       // resident VMs evicted to admit higher-severity ones
	Retried     int       // fail-queued VMs drained into the call
	Requeued    int       // VMs parked in the fail-queue for a later call
	Unplaced    []*dcn.VM // VMs no destination would accept and no queue kept
}

// Add folds o into t.
func (t *Tally) Add(o *Tally) {
	t.Migrations = append(t.Migrations, o.Migrations...)
	t.TotalCost += o.TotalCost
	t.SearchSpace += o.SearchSpace
	t.Rejected += o.Rejected
	t.Preemptions += o.Preemptions
	t.Retried += o.Retried
	t.Requeued += o.Requeued
	t.Unplaced = append(t.Unplaced, o.Unplaced...)
}

// The stage of the Alg. 4 decision that refused a REQUEST.
const (
	causePolicy   = "policy"
	causeCapacity = "capacity"
	causeRace     = "race" // granted, but the placement itself failed
)

// core is the management protocol of Sec. V.B written once: the Alg. 3
// matching step, the Alg. 4 grant, eviction for a stuck VM, and the
// fail-queue's drain and park, all counting into one Tally. Migrate and
// DistributedVMMigration each build one on their stack and differ only in
// how a matched pair travels to the deciding delegation node: a call, or
// bus messages.
type core struct {
	c   *dcn.Cluster
	m   *cost.Model
	pol placement.Policy // never nil: policyOrSheriff resolves the default
	// admit is the call-wide admission hook; grant also takes the deciding
	// shim's own. Nil allows.
	admit     RequestPolicy
	rec       *obs.Recorder
	preempt   PreemptOptions
	queue     *RetryQueue
	evictions int
	// attempts is what the queue recorded for each VM drained this call.
	attempts map[int]int
	tally    *Tally

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

// policyOrSheriff resolves the public contract "a nil placement policy is
// the paper's rule" where a core is built, so nothing below branches on it.
func policyOrSheriff(p placement.Policy) placement.Policy {
	if p == nil {
		p, _ = placement.PolicyOptions{}.New() // zero options always validate
	}
	return p
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

// price evaluates the edges of Alg. 3's bipartite graph G_m under the
// placement policy: costs[i][j] is the matching weight of moving vms[i] to
// hosts[j] — Forbidden when the pair is barred, the host is the VM's own,
// the policy finds it infeasible, it holds a VM dependent on this one, or
// no path to its rack clears the bandwidth floor — and bases[i][j] the
// Eqn. (1) cost charged on commit, zero where the weight is Forbidden
// before scoring. Eqn. (1) depends on the destination rack only, so it is
// evaluated once per (VM, rack), when the first host of the rack gets that
// far; the policy scores every host on its own. Both matrices are rows of
// the scratch's one array, overwritten by the next call.
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
			if h == vm.Host() || !k.pol.Feasible(vm.Capacity, h) { // must actually move
				continue
			}
			if _, conflict := h.Conflict(k.c.Deps, vm.ID); conflict {
				continue
			}
			base, ok := k.rackBase(vm, h.Rack())
			if !ok {
				continue
			}
			bases[i][j] = base
			costs[i][j] = k.pol.Score(vm.Capacity, h, base)
			if costs[i][j] != matching.Forbidden {
				feasible = true
			}
		}
	}
	return costs, bases, feasible
}

// rackBase is the Eqn. (1) cost of moving the VM match is pricing into the
// rack, computed on first request. A detached (preempted) VM has no source
// rack, so its cost reduces to the fixed restart cost Cr.
func (k *core) rackBase(vm *dcn.VM, dst *dcn.Rack) (base float64, ok bool) {
	sc := k.scratch
	p := &sc.prices[dst.Index]
	if p.stamp != sc.stamp {
		p.stamp = sc.stamp
		sc.priced++
		if src := vm.Host(); src == nil {
			p.base, p.ok = k.m.Params().Cr, true
		} else {
			var err error
			p.base, err = k.m.RackMigration(src.Rack(), dst, vm.Capacity, sc.peerRacks)
			p.ok = err == nil
		}
	}
	return p.base, p.ok
}

// admits is the Alg. 4 decision without its effect: the call-wide and the
// deciding shim's admission policies, then the FCFS capacity check under
// the placement policy's capacity rule (so an oversubscription policy
// relaxes the handshake too). cause names the refusing stage.
func (k *core) admits(vm *dcn.VM, dst *dcn.Host, local RequestPolicy) (ok bool, cause string) {
	if k.admit != nil && !k.admit(vm, dst) {
		return false, causePolicy
	}
	if local != nil && !local(vm, dst) {
		return false, causePolicy
	}
	if !k.pol.Feasible(vm.Capacity, dst) {
		return false, causeCapacity
	}
	return true, ""
}

// grant answers one REQUEST at the destination's delegation node: admits,
// then the move itself. An oversubscribing policy (one exposing Factor)
// commits through MoveOversub so the relaxed capacity rule the decision
// granted also holds at placement.
func (k *core) grant(vm *dcn.VM, dst *dcn.Host, local RequestPolicy) (ok bool, cause string) {
	if ok, cause = k.admits(vm, dst, local); !ok {
		return false, cause
	}
	var err error
	if oc, oversub := k.pol.(interface{ Factor() float64 }); oversub {
		err = k.c.MoveOversub(vm, dst, oc.Factor())
	} else {
		err = k.c.Move(vm, dst)
	}
	if err != nil {
		return false, causeRace // e.g. a dependency raced in
	}
	return true, ""
}

// request is the whole handshake where source and destination share an
// address space: REQUEST, grant, then ACK with the migration tallied, or
// REJECT with the refusing stage.
func (k *core) request(vm *dcn.VM, dst *dcn.Host, moveCost float64, shim, round int, local RequestPolicy) bool {
	k.rec.Record(obs.Event{Kind: obs.KindRequest, Round: round, Shim: shim, VM: vm.ID, Host: dst.ID, Value: moveCost})
	from := vm.Host()
	ok, cause := k.grant(vm, dst, local)
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

// mayEvict reports whether preemption is on and inside its budget.
func (k *core) mayEvict() bool {
	return k.preempt.Enabled && k.evictions < k.preempt.MaxEvictions
}

// evictFor frees room for vm on dst by detaching the cheapest resident vm
// dominates by the severity gap (never one in skip), and returns the
// victim, or nil when the budget is spent or nobody qualifies. Where the
// victim goes next is the caller's business.
func (k *core) evictFor(vm *dcn.VM, dst *dcn.Host, skip map[int]bool, shim, round int) *dcn.VM {
	if !k.mayEvict() {
		return nil
	}
	victim := preemptVictim(k.c, vm, dst, k.preempt, skip)
	if victim == nil {
		return nil
	}
	k.c.Evict(victim)
	k.evictions++
	k.tally.Preemptions++
	if k.rec.Enabled() {
		k.rec.Record(obs.Event{Kind: obs.KindPreempt, Round: round, Shim: shim, VM: victim.ID, Host: dst.ID,
			Value: victim.Value, Attrs: map[string]string{
				"for":             strconv.Itoa(vm.ID),
				"severity":        alert.ClassifySeverity(vm.Alert).String(),
				"victim-severity": alert.ClassifySeverity(victim.Alert).String(),
			}})
	}
	return victim
}

// preemptVictim selects the cheapest evictable resident of dst whose
// severity tier the incoming VM dominates by the configured gap: lowest
// knapsack Value first (the Alg. 2 preference), lowest ID on ties, never
// delay-sensitive VMs or IDs in skip, and only when the eviction
// actually makes room and leaves no dependency conflict. Returns nil
// when no resident qualifies.
func preemptVictim(c *dcn.Cluster, vm *dcn.VM, dst *dcn.Host, po PreemptOptions, skip map[int]bool) *dcn.VM {
	sev := alert.ClassifySeverity(vm.Alert)
	if int(sev) < po.MinSeverityGap {
		return nil
	}
	var victim *dcn.VM
	for _, resident := range dst.VMs() {
		if resident.DelaySensitive || resident.ID == vm.ID || skip[resident.ID] {
			continue
		}
		if int(alert.ClassifySeverity(resident.Alert))+po.MinSeverityGap > int(sev) {
			continue
		}
		if dst.Free()+resident.Capacity < vm.Capacity {
			continue
		}
		conflict := false
		for _, other := range dst.VMs() {
			if other != resident && c.Deps.Dependent(vm.ID, other.ID) {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		if victim == nil || resident.Value < victim.Value {
			victim = resident
		}
	}
	return victim
}

// drain empties the fail-queue into the call: entries whose VM left the
// cluster while parked are dropped, the rest are counted and traced as
// retries and returned in FIFO order for the caller to route.
func (k *core) drain() []RetryEntry {
	entries := k.queue.TakeAll()
	live := entries[:0]
	for _, e := range entries {
		if k.c.VM(e.VM.ID) != e.VM {
			continue
		}
		if k.attempts == nil {
			k.attempts = make(map[int]int)
		}
		k.attempts[e.VM.ID] = e.Attempts
		k.tally.Retried++
		if k.rec.Enabled() {
			k.rec.Record(obs.Event{Kind: obs.KindRetry, Shim: e.Shim, VM: e.VM.ID, Host: ShimUnknown,
				Value: float64(e.Attempts), Attrs: map[string]string{"cause": "queue"}})
		}
		live = append(live, e)
	}
	return live
}

// park puts a VM the call could not place into the fail-queue for the
// next one, one attempt older, and reports whether the queue took it: no
// queue, or an attached VM past the attempt budget, and the caller must
// report the VM itself. A detached VM is a preemption victim and is
// always kept.
func (k *core) park(vm *dcn.VM, shim, round int) bool {
	att := k.attempts[vm.ID] + 1
	if !k.queue.Put(RetryEntry{VM: vm, Shim: shim, Attempts: att, Evicted: vm.Host() == nil}) {
		return false
	}
	k.tally.Requeued++
	if k.rec.Enabled() {
		k.rec.Record(obs.Event{Kind: obs.KindRequeue, Round: round, Shim: shim, VM: vm.ID, Host: ShimUnknown,
			Value: float64(att), Attrs: map[string]string{"attempts": strconv.Itoa(att)}})
	}
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
