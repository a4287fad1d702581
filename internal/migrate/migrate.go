// Package migrate implements the distributed Alert-Migration algorithm of
// the paper's Sec. V.B: each rack's shim (delegation node v_i) runs
// Alg. 1 (the framework that turns collected alerts into candidate VM
// sets via the PRIORITY function), Alg. 3 (VMMIGRATION: minimum-weight
// matching of candidate VMs to destination slots, applied round by round),
// and Alg. 4 (the REQUEST handshake granting destination capacity FCFS).
// Outer-switch alerts trigger FLOWREROUTE instead of migration, since
// rerouting is cheaper than a live migration (Sec. III.B).
package migrate

import (
	"errors"
	"fmt"
	"sort"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/knapsack"
	"sheriff/internal/obs"
	"sheriff/internal/placement"
)

// Migration records one applied VM move.
type Migration struct {
	VM   *dcn.VM
	From *dcn.Host
	To   *dcn.Host
	Cost float64
}

// Report summarizes one shim management round (one Alg. 1 execution).
type Report struct {
	Tally
	Rerouted []*dcn.VM
}

// RequestPolicy decides whether a REQUEST handshake may be granted,
// before the Alg. 4 capacity check. It is the injectable admission /
// failure-injection point: per-call (MigrationOptions, DistOptions) or
// per-shim (Params), so concurrent protocol runs never share mutable
// global state. A nil policy always allows.
type RequestPolicy func(vm *dcn.VM, dst *dcn.Host) bool

// Params tunes the shim protocol. Alpha and Beta are the capacity
// portions of Alg. 1/2 ("we present α, β as different portion of capacity
// for migration since it is not necessary to migrate all VMs").
//
// Zero numeric fields mean "use the default" (applied by WithDefaults at
// construction); negative values are a Validate error.
type Params struct {
	Alpha float64 // portion of server capacity to unload on a host alert
	Beta  float64 // portion of ToR capacity to unload on a ToR alert
	// NeighborSwitchHops bounds the shim's dominating region: destination
	// racks reachable through at most this many switches (1 = the paper's
	// one-hop wired neighbors).
	NeighborSwitchHops int
	// RequestPolicy, when non-nil, is consulted on every handshake the
	// shim answers or commits (ProcessAlerts, DistributedVMMigration
	// destinations).
	RequestPolicy RequestPolicy
	// Recorder, when non-nil, receives request/ack/reject/unplaced events
	// from the shim's migration rounds.
	Recorder *obs.Recorder
	// Placement selects the destination-scoring policy for the shim's
	// migration rounds. The zero value is the Sheriff rule (hard capacity
	// check, pure Eqn. (1) cost), bit-exact with the pre-policy code.
	Placement placement.PolicyOptions
	// Preempt enables preemption-aware migration: evict a strictly
	// lower-severity resident to admit a high-alert VM.
	Preempt PreemptOptions
	// Retry enables the shim's fail-queue: VMs unplaced in one management
	// round retry in later rounds instead of being abandoned.
	Retry RetryOptions
}

// DefaultParams matches the regional scheme: one-hop neighbors,
// α = β = 0.2.
func DefaultParams() Params {
	return Params{Alpha: 0.2, Beta: 0.2, NeighborSwitchHops: 1}
}

// WithDefaults returns p with zero numeric fields replaced by the
// DefaultParams values. Negative fields are left for Validate to reject.
func (p Params) WithDefaults() Params {
	d := DefaultParams()
	if p.Alpha == 0 {
		p.Alpha = d.Alpha
	}
	if p.Beta == 0 {
		p.Beta = d.Beta
	}
	if p.NeighborSwitchHops == 0 {
		p.NeighborSwitchHops = d.NeighborSwitchHops
	}
	p.Placement = p.Placement.WithDefaults()
	p.Preempt = p.Preempt.WithDefaults()
	p.Retry = p.Retry.WithDefaults()
	return p
}

// Validate reports whether the parameters are usable. Zero numeric
// fields are accepted (they mean "use the default"); negative or
// out-of-range values are errors.
func (p Params) Validate() error {
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("migrate: Alpha must be in [0,1] (0 = default), got %v", p.Alpha)
	}
	if p.Beta < 0 || p.Beta > 1 {
		return fmt.Errorf("migrate: Beta must be in [0,1] (0 = default), got %v", p.Beta)
	}
	if p.NeighborSwitchHops < 0 {
		return fmt.Errorf("migrate: NeighborSwitchHops must be >= 0 (0 = default), got %d", p.NeighborSwitchHops)
	}
	if err := p.Placement.Validate(); err != nil {
		return err
	}
	if err := p.Preempt.Validate(); err != nil {
		return err
	}
	return p.Retry.Validate()
}

// Shim is the delegation node v_i: it monitors one rack and manages its
// dominating region. ProcessAlerts works in memory the shim keeps from
// round to round, so one goroutine at a time may use a shim.
type Shim struct {
	Rack    *dcn.Rack
	cluster *dcn.Cluster
	model   *cost.Model
	params  Params

	// policy is the destination-scoring policy params.Placement selects.
	policy placement.Policy
	// queue is the shim's fail-queue (nil when retries are disabled).
	queue *RetryQueue

	neighborRacks []*dcn.Rack // cached one-hop region
	// region is the dominating region's hosts, the rack's own first; see
	// regionHosts.
	region []*dcn.Host

	// The memory of the management path, reused from round to round: the
	// Alg. 2 knapsack's, the VMs a round has already selected, and the
	// Alg. 3 matching step's (matrices, rack prices, solver workspace).
	knap    knapsack.Scratch
	inSet   map[int]bool
	scratch matchScratch
}

// NewShim builds the shim for one rack.
func NewShim(c *dcn.Cluster, m *cost.Model, rack *dcn.Rack, p Params) (*Shim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.WithDefaults()
	pol, err := p.Placement.New()
	if err != nil {
		return nil, err
	}
	s := &Shim{Rack: rack, cluster: c, model: m, params: p, policy: pol}
	if p.Retry.Enabled {
		q, err := NewRetryQueue(p.Retry)
		if err != nil {
			return nil, err
		}
		s.queue = q
	}
	for _, nodeID := range c.Graph.RackNeighbors(rack.NodeID, p.NeighborSwitchHops) {
		if r := c.RackByNode(nodeID); r != nil {
			s.neighborRacks = append(s.neighborRacks, r)
		}
	}
	sort.Slice(s.neighborRacks, func(i, j int) bool {
		return s.neighborRacks[i].Index < s.neighborRacks[j].Index
	})
	s.region = append(s.region, rack.Hosts...)
	for _, r := range s.neighborRacks {
		s.region = append(s.region, r.Hosts...)
	}
	return s, nil
}

// NeighborRacks returns the racks in the shim's dominating region
// (excluding its own).
func (s *Shim) NeighborRacks() []*dcn.Rack { return s.neighborRacks }

// SetRequestPolicy installs (or, when nil, removes) the shim's REQUEST
// admission hook after construction. It replaces the removed process-wide
// sheriff.SetRequestGate: the hook is scoped to this shim and consulted
// on every handshake it decides, including the distributed protocol's
// destination side. Like the rest of the shim it must not race Process-
// Alerts or a protocol run.
func (s *Shim) SetRequestPolicy(p RequestPolicy) { s.params.RequestPolicy = p }

// Policy returns the shim's destination-scoring policy.
func (s *Shim) Policy() placement.Policy { return s.policy }

// Queue returns the shim's fail-queue (nil when retries are disabled).
// Safe on a nil shim, as is QueueLen — the runtime's sharded engine keeps
// nil slots for racks that never alerted.
func (s *Shim) Queue() *RetryQueue {
	if s == nil {
		return nil
	}
	return s.queue
}

// QueueLen returns the number of VMs parked in the shim's fail-queue.
func (s *Shim) QueueLen() int { return s.Queue().Len() }

// ProcessAlerts runs Alg. 1 over one collection period's alert set:
// outer-switch alerts feed FLOWREROUTE; host alerts select VMs with the
// α-knapsack; ToR alerts are pooled and select with the β-knapsack; the
// merged migration set is handed to VMMIGRATION.
func (s *Shim) ProcessAlerts(alerts []alert.Alert) (*Report, error) {
	report := &Report{}
	var hostSet, torSet []*dcn.VM
	clear(s.inSet)
	torAlerted := false
	for _, a := range alerts {
		switch a.Kind {
		case alert.FromOuterSwitch:
			// Conflict flows through the hot switch: reroute, do not
			// migrate. PRIORITY with ω = 1 picks the highest-alert VM.
			f := s.vmsUsingSwitch(a.SwitchID)
			report.Rerouted = append(report.Rerouted, knapsack.Priority(f, knapsack.One, 0)...)
		case alert.FromLocalToR:
			torAlerted = true
		case alert.FromServer:
			hostSet = s.appendNew(hostSet, s.overloadSet(a))
		}
	}
	if torAlerted {
		// PRIORITY with ω = β over the rack's VMs.
		budget := s.params.Beta * s.Rack.ToRCapacity
		torSet = s.appendNew(torSet, s.knap.SelectByBudget(s.Rack.VMs(), budget))
	}
	// Host-overload VMs may be relieved anywhere in the region, including
	// other hosts of this rack; ToR-congestion VMs must leave the rack
	// ("release the workload of ToR_i … to neighbor racks"). Fail-queued
	// VMs from earlier rounds re-enter through the host-set migration —
	// the queue is drained inside Migrate — so the round runs even with an
	// empty alert-selected set while retries are pending.
	migrate := func(vms []*dcn.VM, hosts []*dcn.Host, o MigrationOptions) error {
		res, err := migrateOn(&s.scratch, s.cluster, s.model, vms, hosts, o)
		if err == nil {
			report.Add(&res.Tally)
		}
		return err
	}
	if len(hostSet) > 0 || s.QueueLen() > 0 {
		if err := migrate(hostSet, s.regionHosts(true), s.migrationOptions()); err != nil {
			return report, err
		}
	}
	if len(torSet) > 0 {
		// The host-set migration already drained the queue; this one must not
		// re-drain VMs parked moments ago in the same round. Its own unplaced
		// VMs still park.
		o := s.migrationOptions()
		o.DeferDrain = true
		if err := migrate(torSet, s.regionHosts(false), o); err != nil {
			return report, err
		}
	}
	return report, nil
}

// overloadSet is Alg. 1's server-alert branch: PRIORITY with ω = α over the
// alerted host's VMs, or nothing when the host is not in the shim's rack.
// The slice is the shim's knapsack output, overwritten by the next call.
func (s *Shim) overloadSet(a alert.Alert) []*dcn.VM {
	h := s.cluster.Host(a.HostID)
	if h == nil || h.Rack() != s.Rack {
		return nil
	}
	return s.knap.SelectByBudget(h.Residents(), s.params.Alpha*h.Capacity)
}

// appendNew appends to dst the VMs this round has not selected yet,
// marking them.
func (s *Shim) appendNew(dst []*dcn.VM, vms []*dcn.VM) []*dcn.VM {
	for _, vm := range vms {
		if !s.inSet[vm.ID] {
			made(&s.inSet)[vm.ID] = true
			dst = append(dst, vm)
		}
	}
	return dst
}

// migrationOptions projects the shim's params onto one VMMIGRATION call.
func (s *Shim) migrationOptions() MigrationOptions {
	return MigrationOptions{
		Policy:    s.params.RequestPolicy,
		Recorder:  s.params.Recorder,
		Shim:      s.Rack.Index,
		Placement: s.policy,
		Preempt:   s.params.Preempt,
		Queue:     s.queue,
	}
}

// vmsUsingSwitch approximates "VMs with flows out through s_j": with no
// per-flow state in the simulator, every VM of the rack whose traffic
// leaves the rack (it has dependent peers in other racks) is a candidate.
func (s *Shim) vmsUsingSwitch(switchID int) []*dcn.VM {
	var out []*dcn.VM
	var buf [8]int
	for _, vm := range s.Rack.VMs() {
		for _, peerRack := range s.cluster.Deps.PeerRacks(s.cluster, vm.ID, buf[:0]) {
			if peerRack != s.Rack.Index {
				out = append(out, vm)
				break
			}
		}
	}
	if len(out) == 0 {
		out = s.Rack.VMs()
	}
	return out
}

// regionHosts returns destination hosts in the dominating region. With
// includeOwn, the rack's own hosts are included (host-overload relief may
// stay local); otherwise only neighbor racks qualify (ToR relief).
// Exclusion of a VM's current host happens in the cost matrix. The slice is
// the shim's: read it, do not modify it.
func (s *Shim) regionHosts(includeOwn bool) []*dcn.Host {
	if includeOwn {
		return s.region
	}
	return s.region[len(s.Rack.Hosts):]
}

// MigrationResult is the outcome of one VMMIGRATION invocation (Alg. 3).
type MigrationResult struct {
	Tally
	// Evicted lists the victims whose eviction stuck, in eviction order.
	Evicted []*dcn.VM
}

// ErrNoCandidates is returned when the destination set is empty.
var ErrNoCandidates = errors.New("migrate: no candidate destination hosts")

// MigrationOptions configures one VMMIGRATION invocation. It is the
// single policy-carrying entry-point configuration that replaced the
// VMMigration / VMMigrationOpts / VMMigrationWith trio.
type MigrationOptions struct {
	// ForbidSameRack applies the Eqn. (6) constraint: a VM may only land
	// in a rack other than its own (v_p ∈ N(v_i)), the setting of the
	// Figs. 11–14 comparison where alerts mean the whole rack must shed
	// load. Detached (preempted) VMs have no rack and are exempt.
	ForbidSameRack bool
	// Policy, when non-nil, is consulted before the Alg. 4 capacity check
	// on every REQUEST handshake.
	Policy RequestPolicy
	// Recorder, when non-nil, receives request/ack/reject/preempt/requeue/
	// unplaced events with the retry round numbers.
	Recorder *obs.Recorder
	// Shim tags recorded events with the source shim's rack index; leave
	// zero-valued calls at ShimUnknown.
	Shim int
	// Placement scores candidate destinations. Nil is the Sheriff rule —
	// hard capacity check, pure Eqn. (1) cost — bit-exact with the
	// pre-policy implementation.
	Placement placement.Policy
	// Preempt enables eviction of strictly lower-severity residents when a
	// candidate VM has no feasible destination.
	Preempt PreemptOptions
	// Queue, when non-nil, is the fail-queue: parked VMs drain into the
	// candidate set at the start of the call (unless DeferDrain) and VMs
	// left unplaced park for a later round instead of being abandoned.
	Queue *RetryQueue
	// DeferDrain leaves already-parked entries in the queue (a caller
	// running several migrations per round drains only the first); VMs
	// unplaced by this call still park.
	DeferDrain bool
}

// ShimUnknown marks events whose source shim is not identified.
const ShimUnknown = -1

// VMMigration implements Alg. 3 with default options: while the candidate
// set is non-empty, build the bipartite cost graph between candidate VMs
// and destination slots, compute a minimum-weight matching (Kuhn–
// Munkres), and apply each matched pair through the Alg. 4 REQUEST
// handshake. It is a thin alias for Migrate.
func VMMigration(c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host) (*MigrationResult, error) {
	return Migrate(c, m, f, candidates, MigrationOptions{Shim: ShimUnknown})
}

// Migrate is the unified Alg. 3 entry point: minimum-weight matching of
// candidate VMs to destination slots under the configured placement
// policy, round by round through the Alg. 4 REQUEST handshake. VMs whose
// request is rejected retry in the next round against the remaining
// slots. When no destination admits a VM, preemption (if enabled) evicts
// a strictly lower-severity, lower-knapsack-value resident to make room;
// VMs still unplaced at the end park in the fail-queue (if attached) for
// a later management round.
func Migrate(c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) (*MigrationResult, error) {
	return migrateOn(nil, c, m, f, candidates, o)
}

// migrateOn is Migrate over a matching scratch the caller keeps (a shim's),
// or over one of the call's own when sc is nil.
func migrateOn(sc *matchScratch, c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) (*MigrationResult, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	if err := o.Preempt.Validate(); err != nil {
		return nil, err
	}
	res := &MigrationResult{}
	k := core{c: c, m: m, pol: policyOrSheriff(o.Placement), admit: o.Policy, rec: o.Recorder,
		preempt: o.Preempt.WithDefaults(), queue: o.Queue, tally: &res.Tally, scratch: sc}
	var err error
	res.Evicted, err = k.sequential(f, candidates, o.Shim, o.ForbidSameRack, !o.DeferDrain, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// sequential is the protocol by direct call — the transport of Migrate,
// and the last rung of the distributed protocol's fallback ladder: match,
// send each matched pair through the handshake, rematch what was refused
// or left over, evict when nothing fits, and finally park or give up.
// shim tags the events; forbidSameRack bars a VM's own rack; drain first
// empties the fail-queue into the candidate set; local is the deciding
// shim's admission policy. It returns the victims whose eviction stuck.
func (k *core) sequential(f []*dcn.VM, candidates []*dcn.Host, shim int, forbidSameRack, drain bool, local RequestPolicy) ([]*dcn.VM, error) {
	remaining := append([]*dcn.VM(nil), f...)
	if drain && k.queue != nil {
		inSet := make(map[int]bool, len(remaining))
		for _, vm := range remaining {
			inSet[vm.ID] = true
		}
		for _, e := range k.drain() {
			if !inSet[e.VM.ID] {
				inSet[e.VM.ID] = true
				remaining = append(remaining, e.VM)
			}
		}
	}
	// Destinations that rejected a VM are excluded from its later rounds
	// ("v_i should recalculate possible migration destinations"), as is
	// the host a victim was evicted from (no preemption ping-pong). The
	// exclusion set, keyed by candidate index, only grows, so the loop
	// terminates.
	var excluded map[int]map[int]bool
	barred := func(vm *dcn.VM, j int) bool {
		// Eqn. (6): v_p ∈ N(v_i). A detached VM has no rack to leave.
		return excluded[vm.ID][j] ||
			forbidSameRack && vm.Host() != nil && candidates[j].Rack() == vm.Host().Rack()
	}
	barredAt := func(i, j int) bool { return barred(remaining[i], j) }
	// evicted lists this call's victims; evictedFrom remembers each one's
	// original host for the rollback.
	var evicted []*dcn.VM
	var evictedFrom map[int]*dcn.Host
	// preempt frees capacity for the stuck VMs by evicting one resident of
	// a candidate host, returning whether an eviction happened (the caller
	// then rematches). The victim joins the stuck set and must find a new
	// home itself; a VM already in the set is never a victim.
	preempt := func(stuck []*dcn.VM) ([]*dcn.VM, bool) {
		if !k.mayEvict() {
			return stuck, false
		}
		inSet := make(map[int]bool, len(stuck))
		for _, vm := range stuck {
			inSet[vm.ID] = true
		}
		// Highest-severity stuck VM first; ID breaks ties for determinism.
		order := append([]*dcn.VM(nil), stuck...)
		sort.SliceStable(order, func(i, j int) bool {
			si, sj := alert.ClassifySeverity(order[i].Alert), alert.ClassifySeverity(order[j].Alert)
			if si != sj {
				return si > sj
			}
			return order[i].ID < order[j].ID
		})
		for _, vm := range order {
			for j, h := range candidates {
				if h == vm.Host() || barred(vm, j) {
					continue
				}
				// Round 0: the sequential path has never stamped its preempt
				// events, and the golden trace pins that.
				victim := k.evictFor(vm, h, inSet, shim, 0)
				if victim == nil {
					continue
				}
				made(&evictedFrom)[victim.ID] = h
				evicted = append(evicted, victim)
				exclude(&excluded, victim.ID, j) // no ping-pong back onto h
				return append(stuck, victim), true
			}
		}
		return stuck, false
	}

	round := 0
	for len(remaining) > 0 {
		round++
		assign, bases, err := k.match(remaining, candidates, barredAt)
		if err != nil {
			return nil, err
		}
		k.tally.SearchSpace += len(remaining) * len(candidates)
		anyMatched := false
		if assign != nil {
			var next []*dcn.VM
			for i, vm := range remaining {
				j := assign[i]
				if j < 0 {
					next = append(next, vm)
					continue
				}
				anyMatched = true
				if !k.request(vm, candidates[j], bases[i][j], shim, round, local) {
					exclude(&excluded, vm.ID, j)
					next = append(next, vm)
				}
			}
			remaining = next
		}
		if !anyMatched {
			var evictedOne bool
			if remaining, evictedOne = preempt(remaining); !evictedOne {
				break
			}
		}
	}
	// Whatever is left found no home this call: park it in the fail-queue
	// when one is attached and the attempt budget allows, otherwise report
	// it unplaced. A detached victim that cannot park rolls back onto its
	// original host if the slot is still open, and then was never evicted.
	for _, vm := range remaining {
		if k.park(vm, shim, round) {
			continue
		}
		if home := evictedFrom[vm.ID]; home != nil && vm.Host() == nil && k.c.Move(vm, home) == nil {
			k.tally.Preemptions--
			for i, v := range evicted {
				if v == vm {
					evicted = append(evicted[:i], evicted[i+1:]...)
					break
				}
			}
		}
		k.tally.Unplaced = append(k.tally.Unplaced, vm)
		k.rec.Record(obs.Event{Kind: obs.KindUnplaced, Round: round, Shim: shim, VM: vm.ID, Host: ShimUnknown})
	}
	return evicted, nil
}

// Request implements Alg. 4: the receiving delegation node grants the
// migration iff the destination host still has capacity for the VM
// (first come, first served). It does not mutate state; the actual move
// follows on ACK. Admission and failure injection compose in front of
// this check through RequestPolicy — the old package-global gate is gone
// (it was unsafe under concurrent callers).
func Request(vm *dcn.VM, dst *dcn.Host) bool {
	return dst.Free() >= vm.Capacity
}
