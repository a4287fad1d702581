// Package migrate implements the distributed Alert-Migration algorithm of
// the paper's Sec. V.B: each rack's shim (delegation node v_i) runs
// Alg. 1 (the framework that turns collected alerts into candidate VM
// sets via the PRIORITY function), Alg. 3 (VMMIGRATION: minimum-weight
// matching of candidate VMs to destination slots, applied round by round),
// and Alg. 4 (the REQUEST handshake granting destination capacity FCFS).
// A shim handles server and local-ToR alerts. Outer-switch congestion
// reaches no shim: the runtime answers it with FLOWREROUTE on the flows
// through the hot switch, since rerouting is cheaper than a live migration
// (Sec. III.B).
//
// A shim's round works in a Workspace it borrows: the tally, the knapsack,
// the selected sets and the matching step's memory. Management runs one
// shim at a time, so every shim of a fabric borrows the same one, which
// grows to the largest round any of them has run, once; a shim keeps only
// its rack and its region. Shim.ProcessAlerts returns the workspace's
// Tally, emptied at the top of each round and valid until the next round
// run in that workspace, so a caller that keeps tallies across rounds
// copies what it needs. Once the workspace has warmed, a round allocates
// nothing, whichever shim runs it. Migrate, the standalone VMMIGRATION
// call, returns a tally of its own.
package migrate

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/knapsack"
	"sheriff/internal/obs"
	"sheriff/internal/topology"
)

// Migration records one applied VM move.
type Migration struct {
	VM   *dcn.VM
	From *dcn.Host
	To   *dcn.Host
	Cost float64
}

// RequestPolicy decides whether a REQUEST handshake may be granted,
// before the Alg. 4 capacity check. It is the injectable admission /
// failure-injection point, set per call (MigrationOptions.Policy,
// DistOptions.RequestPolicy), so concurrent protocol runs never share
// mutable global state. A nil policy always allows.
type RequestPolicy func(vm *dcn.VM, dst *dcn.Host) bool

// alpha and beta are the capacity portions of Alg. 1/2 ("we present α, β
// as different portion of capacity for migration since it is not necessary
// to migrate all VMs"): a host alert unloads up to alpha of the server's
// capacity, a ToR alert up to beta of the ToR's.
const (
	alpha float64 = 0.2
	beta  float64 = 0.2
)

// Params tunes the shim protocol.
//
// Zero numeric fields mean "use the default" (applied by WithDefaults at
// construction); negative values are a Validate error.
type Params struct {
	// NeighborSwitchHops bounds the shim's dominating region: destination
	// racks reachable through at most this many switches (1 = the paper's
	// one-hop wired neighbors).
	NeighborSwitchHops int
	// Recorder, when non-nil, receives request/ack/reject/unplaced events
	// from the shim's migration rounds.
	Recorder *obs.Recorder
}

// DefaultParams matches the regional scheme: one-hop neighbors.
func DefaultParams() Params {
	return Params{NeighborSwitchHops: 1}
}

// WithDefaults returns p with zero numeric fields replaced by the
// DefaultParams values. Negative fields are left for Validate to reject.
func (p Params) WithDefaults() Params {
	if p.NeighborSwitchHops == 0 {
		p.NeighborSwitchHops = DefaultParams().NeighborSwitchHops
	}
	return p
}

// Validate reports whether the parameters are usable. Zero numeric
// fields are accepted (they mean "use the default"); negative or
// out-of-range values are errors.
func (p Params) Validate() error {
	if p.NeighborSwitchHops < 0 {
		return fmt.Errorf("migrate: NeighborSwitchHops must be >= 0 (0 = default), got %d", p.NeighborSwitchHops)
	}
	return nil
}

// Shim is the delegation node v_i: it monitors one rack and manages its
// dominating region. Its rounds work in the workspace it was built over;
// shims built over one workspace share it, so one goroutine at a time may
// use any of them.
type Shim struct {
	Rack    *dcn.Rack
	cluster *dcn.Cluster
	model   *cost.Model
	params  Params

	neighborRacks []*dcn.Rack // cached one-hop region
	// region is the dominating region's hosts, the rack's own first; see
	// regionHosts.
	region []*dcn.Host
	ws     *Workspace // borrowed, not owned
}

// Workspace is the memory of a management round, lent to every shim built
// over it: the tally the round returns, the rack's VMs, the Alg. 2
// knapsack's, the VMs a round has selected (as a set, and as the host and
// ToR lists), the Alg. 3 matching step's (matrices, rack prices, solver
// workspace, the VMs left to place), and the memory NewShim builds the
// shims in. No decision reads what an earlier round left in it, whichever
// shim ran that round. The zero value is ready; it grows to the largest
// round run in it and then allocates nothing. One goroutine at a time may
// use a workspace.
type Workspace struct {
	tally           Tally
	vms             []*dcn.VM
	knap            knapsack.Scratch
	inSet           map[int]bool
	hostSet, torSet []*dcn.VM
	match           matchScratch

	build shimMemory
}

// shimMemory is the memory NewShim builds shims in: the region walk, and
// the shims and their neighbour and region lists, carved from chunks that
// double when they run out (carve).
type shimMemory struct {
	walk  topology.NeighborScratch
	nodes []int

	shims []Shim
	racks []*dcn.Rack
	hosts []*dcn.Host
}

// carve cuts n elements off the unused end of *chunk (its length is what
// has been cut, its capacity its size), first replacing it with a fresh
// chunk of at least n and twice the old one's size when fewer than n are
// left. What it cuts is capped at n, so an append to one list never
// writes into the next.
func carve[T any](chunk *[]T, n int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, 2*cap(c)))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// NewShim builds the shim for one rack, over the workspace its rounds
// borrow; a nil ws gives the shim one of its own. Shims that run one at a
// time (a runtime's) share one workspace. The region walk runs in the
// workspace's shim memory, and the shim, its neighbour list and its region
// are carved from that memory's chunks, which double when they run out:
// shims built one after another over one workspace allocate a few chunks
// between them, not three objects each. A shim over a workspace of its
// own allocates the workspace, its shim memory, the walk's and three
// chunks of exactly its size.
func NewShim(c *dcn.Cluster, m *cost.Model, rack *dcn.Rack, p Params, ws *Workspace) (*Shim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.WithDefaults()
	if ws == nil {
		ws = &Workspace{}
	}
	mem := &ws.build
	s := &carve(&mem.shims, 1)[0]
	*s = Shim{Rack: rack, cluster: c, model: m, params: p, ws: ws}
	mem.nodes = c.Graph.AppendRackNeighbors(mem.nodes[:0], rack.NodeID, p.NeighborSwitchHops, &mem.walk)
	racks, hosts := 0, len(rack.Hosts)
	for _, nodeID := range mem.nodes {
		if r := c.RackByNode(nodeID); r != nil {
			racks++
			hosts += len(r.Hosts)
		}
	}
	if racks > 0 {
		s.neighborRacks = carve(&mem.racks, racks)[:0]
		for _, nodeID := range mem.nodes {
			if r := c.RackByNode(nodeID); r != nil {
				s.neighborRacks = append(s.neighborRacks, r)
			}
		}
		slices.SortFunc(s.neighborRacks, func(a, b *dcn.Rack) int { return cmp.Compare(a.Index, b.Index) })
	}
	s.region = carve(&mem.hosts, hosts)[:0]
	s.region = append(s.region, rack.Hosts...)
	for _, r := range s.neighborRacks {
		s.region = append(s.region, r.Hosts...)
	}
	return s, nil
}

// NeighborRacks returns the racks in the shim's dominating region
// (excluding its own).
func (s *Shim) NeighborRacks() []*dcn.Rack { return s.neighborRacks }

// ProcessAlerts runs Alg. 1 over one collection period's alert set: host
// alerts select VMs with the α-knapsack; ToR alerts are pooled and select
// with the β-knapsack; the merged migration set is handed to VMMIGRATION.
//
// The tally is the workspace's: ProcessAlerts empties it at the top of
// every call, and it stays valid until the next round run in the same
// workspace — by this shim or any other built over it. A VMMIGRATION call
// that fails leaves it as it was before that call, so on an error it holds
// the calls that succeeded.
func (s *Shim) ProcessAlerts(alerts []alert.Alert) (*Tally, error) {
	ws := s.ws
	t := &ws.tally
	*t = Tally{Migrations: t.Migrations[:0], Unplaced: t.Unplaced[:0]}
	ws.hostSet, ws.torSet = ws.hostSet[:0], ws.torSet[:0]
	clear(ws.inSet)
	torAlerted := false
	for _, a := range alerts {
		switch a.Kind {
		case alert.FromLocalToR:
			torAlerted = true
		case alert.FromServer:
			ws.hostSet = ws.appendNew(ws.hostSet, s.overloadSet(a))
		}
	}
	if torAlerted {
		// PRIORITY with ω = β over the rack's VMs, listed as Rack.VMs
		// lists them.
		ws.vms = ws.vms[:0]
		for _, h := range s.Rack.Hosts {
			ws.vms = append(ws.vms, h.Residents()...)
		}
		budget := beta * s.Rack.ToRCapacity
		ws.torSet = ws.appendNew(ws.torSet, ws.knap.SelectByBudget(ws.vms, budget))
	}
	// Host-overload VMs may be relieved anywhere in the region, including
	// other hosts of this rack; ToR-congestion VMs must leave the rack
	// ("release the workload of ToR_i … to neighbor racks").
	if len(ws.hostSet) > 0 {
		if err := migrateInto(t, &ws.match, s.cluster, s.model, ws.hostSet, s.regionHosts(true), s.migrationOptions()); err != nil {
			return t, err
		}
	}
	if len(ws.torSet) > 0 {
		if err := migrateInto(t, &ws.match, s.cluster, s.model, ws.torSet, s.regionHosts(false), s.migrationOptions()); err != nil {
			return t, err
		}
	}
	return t, nil
}

// overloadSet is Alg. 1's server-alert branch: PRIORITY with ω = α over the
// alerted host's VMs, or nothing when the host is not in the shim's rack.
// The slice is the workspace's knapsack output, overwritten by the next
// call.
func (s *Shim) overloadSet(a alert.Alert) []*dcn.VM {
	h := s.cluster.Host(a.HostID)
	if h == nil || h.Rack() != s.Rack {
		return nil
	}
	return s.ws.knap.SelectByBudget(h.Residents(), alpha*h.Capacity)
}

// appendNew appends to dst the VMs this round has not selected yet,
// marking them.
func (ws *Workspace) appendNew(dst []*dcn.VM, vms []*dcn.VM) []*dcn.VM {
	for _, vm := range vms {
		if !ws.inSet[vm.ID] {
			made(&ws.inSet)[vm.ID] = true
			dst = append(dst, vm)
		}
	}
	return dst
}

// migrationOptions projects the shim's params onto one VMMIGRATION call.
func (s *Shim) migrationOptions() MigrationOptions {
	return MigrationOptions{Recorder: s.params.Recorder, Shim: s.Rack.Index}
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

// ErrNoCandidates is returned when the destination set is empty.
var ErrNoCandidates = errors.New("migrate: no candidate destination hosts")

// MigrationOptions configures one VMMIGRATION invocation (one Migrate
// call). The zero value reproduces Alg. 3 exactly.
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

// Migrate is the unified Alg. 3 entry point: minimum-weight matching of
// candidate VMs to destination slots by Eqn. (1) cost under the hard
// capacity check, round by round through the Alg. 4 REQUEST handshake. VMs
// whose request is rejected retry in the next round against the remaining
// slots; VMs no destination admits are reported unplaced.
func Migrate(c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) (*Tally, error) {
	t := &Tally{}
	if err := migrateInto(t, nil, c, m, f, candidates, o); err != nil {
		return nil, err
	}
	return t, nil
}

// migrateInto is Migrate counting into t, over a matching scratch the
// caller keeps (a shim's workspace's), or over one of the call's own when
// sc is nil.
// The call's migrations and unplaced VMs are appended to t's; its cost is
// summed on its own and then added to t's, so that t sums in the order a
// fold of per-call results (Tally.Add) would. On an error t is left as it
// was.
func migrateInto(t *Tally, sc *matchScratch, c *dcn.Cluster, m *cost.Model, f []*dcn.VM, candidates []*dcn.Host, o MigrationOptions) error {
	if len(candidates) == 0 {
		return ErrNoCandidates
	}
	// The call counts into a tally of the scratch's (a core's tally
	// escapes), appending past the ends of t's slices, which t does not see
	// until the call has succeeded.
	k := core{c: c, m: m, admit: o.Policy, rec: o.Recorder, scratch: sc}
	call := &k.ensureScratch().call
	*call = Tally{Migrations: t.Migrations, Unplaced: t.Unplaced}
	k.tally = call
	if err := k.sequential(f, candidates, o.Shim, o.ForbidSameRack); err != nil {
		return err
	}
	t.Migrations, t.Unplaced = call.Migrations, call.Unplaced
	t.TotalCost += call.TotalCost
	t.SearchSpace += call.SearchSpace
	t.Rejected += call.Rejected
	return nil
}

// sequential is the protocol by direct call — the transport of Migrate,
// and the last rung of the distributed protocol's fallback ladder: match,
// send each matched pair through the handshake, rematch what was refused
// or left over, and report unplaced what nothing admits. shim tags the
// events; forbidSameRack bars a VM's own rack.
func (k *core) sequential(f []*dcn.VM, candidates []*dcn.Host, shim int, forbidSameRack bool) error {
	sc := k.ensureScratch()
	// The VMs left to place and the next round's, in the scratch's two
	// lists, swapped each round and handed back grown.
	remaining, next := append(sc.remaining[:0], f...), sc.next[:0]
	defer func() { sc.remaining, sc.next = remaining, next }()
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
		next = next[:0]
		for i, vm := range remaining {
			j := assign[i]
			if j < 0 {
				next = append(next, vm)
				continue
			}
			anyMatched = true
			if !k.request(vm, candidates[j], bases[i][j], shim, round) {
				exclude(&excluded, vm.ID, j)
				next = append(next, vm)
			}
		}
		remaining, next = next, remaining
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
