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
	return nil
}

// Shim is the delegation node v_i: it monitors one rack and manages its
// dominating region. ProcessAlerts works in memory the shim keeps from
// round to round, so one goroutine at a time may use a shim.
type Shim struct {
	Rack    *dcn.Rack
	cluster *dcn.Cluster
	model   *cost.Model
	params  Params

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
	s := &Shim{Rack: rack, cluster: c, model: m, params: p}
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
	// ("release the workload of ToR_i … to neighbor racks").
	migrate := func(vms []*dcn.VM, hosts []*dcn.Host, o MigrationOptions) error {
		res, err := migrateOn(&s.scratch, s.cluster, s.model, vms, hosts, o)
		if err == nil {
			report.Add(&res.Tally)
		}
		return err
	}
	if len(hostSet) > 0 {
		if err := migrate(hostSet, s.regionHosts(true), s.migrationOptions()); err != nil {
			return report, err
		}
	}
	if len(torSet) > 0 {
		if err := migrate(torSet, s.regionHosts(false), s.migrationOptions()); err != nil {
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
		Policy:   s.params.RequestPolicy,
		Recorder: s.params.Recorder,
		Shim:     s.Rack.Index,
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
	// load.
	ForbidSameRack bool
	// Policy, when non-nil, is consulted before the Alg. 4 capacity check
	// on every REQUEST handshake.
	Policy RequestPolicy
	// Recorder, when non-nil, receives request/ack/reject/unplaced events
	// with the retry round numbers.
	Recorder *obs.Recorder
	// Shim tags recorded events with the source shim's rack index; leave
	// zero-valued calls at ShimUnknown.
	Shim int
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
// candidate VMs to destination slots by Eqn. (1) cost under the hard
// capacity check, round by round through the Alg. 4 REQUEST handshake. VMs
// whose request is rejected retry in the next round against the remaining
// slots; VMs no destination admits are reported unplaced.
func Migrate(c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) (*MigrationResult, error) {
	return migrateOn(nil, c, m, f, candidates, o)
}

// migrateOn is Migrate over a matching scratch the caller keeps (a shim's),
// or over one of the call's own when sc is nil.
func migrateOn(sc *matchScratch, c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) (*MigrationResult, error) {
	if len(candidates) == 0 {
		return nil, ErrNoCandidates
	}
	res := &MigrationResult{}
	k := core{c: c, m: m, admit: o.Policy, rec: o.Recorder, tally: &res.Tally, scratch: sc}
	if err := k.sequential(f, candidates, o.Shim, o.ForbidSameRack, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// sequential is the protocol by direct call — the transport of Migrate,
// and the last rung of the distributed protocol's fallback ladder: match,
// send each matched pair through the handshake, rematch what was refused
// or left over, and report unplaced what nothing admits. shim tags the
// events; forbidSameRack bars a VM's own rack; local is the deciding
// shim's admission policy.
func (k *core) sequential(f []*dcn.VM, candidates []*dcn.Host, shim int, forbidSameRack bool, local RequestPolicy) error {
	remaining := append([]*dcn.VM(nil), f...)
	// Destinations that rejected a VM are excluded from its later rounds
	// ("v_i should recalculate possible migration destinations"). The
	// exclusion set, keyed by candidate index, only grows, so the loop
	// terminates.
	var excluded map[int]map[int]bool
	barred := func(i, j int) bool {
		vm := remaining[i]
		// Eqn. (6): v_p ∈ N(v_i).
		return excluded[vm.ID][j] || forbidSameRack && candidates[j].Rack() == vm.Host().Rack()
	}

	round := 0
	for len(remaining) > 0 {
		round++
		assign, bases, err := k.match(remaining, candidates, barred)
		if err != nil {
			return err
		}
		k.tally.SearchSpace += len(remaining) * len(candidates)
		if assign == nil {
			break
		}
		anyMatched := false
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
		if !anyMatched {
			break
		}
	}
	for _, vm := range remaining {
		k.tally.Unplaced = append(k.tally.Unplaced, vm)
		k.rec.Record(obs.Event{Kind: obs.KindUnplaced, Round: round, Shim: shim, VM: vm.ID, Host: ShimUnknown})
	}
	return nil
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
