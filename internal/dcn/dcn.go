// Package dcn models the data-center entities of the paper's Sec. II–III:
// racks with their delegation (shim) nodes v_i, hosts h_ij, virtual
// machines m^k_ij, the VM dependency graph G_d, and the cluster that ties
// them to a wired topology graph G_r. Table I's notation maps directly to
// the types here.
package dcn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sheriff/internal/topology"
)

// VM is a virtual machine m^k_ij. Capacity is its resource demand in the
// paper's abstract units (the simulations cap it at 20); Value is the
// knapsack value used by the PRIORITY function (lower-value VMs are
// preferred for migration).
//
// A cluster makes its VMs many at a time: AddVM carves them from chunks of
// VMs and their names from one string per chunk, and Restore makes a
// snapshot's from one array. A VM's pointer and ID stay the VM's for the
// cluster's life, but its storage is its chunk's: a removed VM, or one
// held after its cluster is dropped, keeps every VM of its chunk in memory.
type VM struct {
	ID             int
	Name           string
	Capacity       float64
	Value          float64
	DelaySensitive bool
	Alert          float64 // most recent ALERT^k_ij (0 = no alert)

	host *Host
}

// Host returns the host currently running the VM (nil if unplaced).
func (v *VM) Host() *Host { return v.host }

// Host is a physical server h_ij inside a rack.
type Host struct {
	ID       int
	Index    int // j: position within the rack
	Capacity float64
	rack     *Rack
	vms      []*VM   // residents, ascending by VM ID
	placed   *uint64 // the cluster's placement counter, bumped by insert and remove
}

// Rack returns the rack containing the host.
func (h *Host) Rack() *Rack { return h.rack }

// VMs returns the VMs on the host, ordered by VM ID so every consumer —
// knapsack selection, summation, iteration — is deterministic. The slice
// is a copy: callers move VMs while ranging over it.
func (h *Host) VMs() []*VM { return append([]*VM(nil), h.vms...) }

// Residents returns the VMs on the host, ordered by VM ID, without the copy
// VMs makes. The slice is the host's own: read it, never modify it, and
// never keep it past the next change to the host's residents.
func (h *Host) Residents() []*VM { return h.vms }

// Conflict reports whether a resident VM is dependent on vmID in deps, and
// which one (the lowest-ID conflict) — the χ = 0 co-hosting check, walked
// in place.
func (h *Host) Conflict(deps *DependencyGraph, vmID int) (resident int, ok bool) {
	for _, r := range h.vms {
		if deps.Dependent(vmID, r.ID) {
			return r.ID, true
		}
	}
	return 0, false
}

// find returns the position of the VM ID in the resident slice, or where
// it would be inserted.
func (h *Host) find(id int) (int, bool) {
	i := sort.Search(len(h.vms), func(i int) bool { return h.vms[i].ID >= id })
	return i, i < len(h.vms) && h.vms[i].ID == id
}

func (h *Host) insert(vm *VM) {
	i, ok := h.find(vm.ID)
	if ok { // same ID again (a snapshot naming a VM twice): last one wins
		h.vms[i] = vm
		return
	}
	h.vms = append(h.vms, nil)
	copy(h.vms[i+1:], h.vms[i:])
	h.vms[i] = vm
	*h.placed++
}

func (h *Host) remove(id int) {
	if i, ok := h.find(id); ok {
		h.vms = append(h.vms[:i], h.vms[i+1:]...)
		*h.placed++
	}
}

// Used returns the total capacity consumed by resident VMs. Summation
// follows VM-ID order for bit-level reproducibility; it is recomputed on
// every call rather than kept as a running sum, whose rounding would
// depend on the order VMs came and went.
func (h *Host) Used() float64 {
	sum := 0.0
	for _, v := range h.vms {
		sum += v.Capacity
	}
	return sum
}

// Free returns the remaining capacity.
func (h *Host) Free() float64 { return h.Capacity - h.Used() }

// Utilization returns Used/Capacity in [0, …]; >1 means oversubscribed.
func (h *Host) Utilization() float64 {
	if h.Capacity == 0 {
		return 0
	}
	return h.Used() / h.Capacity
}

// Rack is the basic unit of the DCN: the union of hosts behind one ToR
// switch, managed by one shim (delegation node v_i). NodeID is the rack's
// vertex in the wired topology graph.
type Rack struct {
	Index  int // i: rack index in the cluster
	NodeID int // vertex ID in the topology graph
	Hosts  []*Host

	// ToRCapacity is the uplink capacity budget used by the β rule of the
	// PRIORITY function.
	ToRCapacity float64
}

// VMs returns every VM hosted in the rack, host by host, each host's in ID
// order. The slice is a copy, made in one allocation; an empty rack's is
// nil.
func (r *Rack) VMs() []*VM {
	n := 0
	for _, h := range r.Hosts {
		n += len(h.vms)
	}
	if n == 0 {
		return nil
	}
	out := make([]*VM, 0, n)
	for _, h := range r.Hosts {
		out = append(out, h.vms...)
	}
	return out
}

// Used returns the capacity consumed across all hosts of the rack.
func (r *Rack) Used() float64 {
	sum := 0.0
	for _, h := range r.Hosts {
		sum += h.Used()
	}
	return sum
}

// Capacity returns the total host capacity of the rack.
func (r *Rack) Capacity() float64 {
	sum := 0.0
	for _, h := range r.Hosts {
		sum += h.Capacity
	}
	return sum
}

// Config sets cluster-wide sizing.
type Config struct {
	HostsPerRack int     // paper: 40 servers per rack (Sec. II.A)
	HostCapacity float64 // per-host resource capacity
	ToRCapacity  float64 // per-rack uplink budget for the β rule
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.HostsPerRack < 1 {
		return fmt.Errorf("dcn: HostsPerRack must be >= 1, got %d", c.HostsPerRack)
	}
	if c.HostCapacity <= 0 {
		return fmt.Errorf("dcn: HostCapacity must be > 0, got %v", c.HostCapacity)
	}
	if c.ToRCapacity <= 0 {
		return fmt.Errorf("dcn: ToRCapacity must be > 0, got %v", c.ToRCapacity)
	}
	return nil
}

// Cluster binds racks, hosts and VMs to a wired topology.
type Cluster struct {
	Graph  *topology.Graph
	Racks  []*Rack
	Deps   *DependencyGraph
	config Config

	rackByNode []*Rack // by topology vertex ID; nil for a vertex that is not a rack
	// vms is indexed by VM ID: IDs are handed out in sequence, so the next
	// one is len(vms), and a removed VM leaves a nil slot behind. numVMs
	// counts the slots in use.
	vms    []*VM
	numVMs int
	hosts  []*Host

	// vmChunk is the chunk AddVM carves VMs from: its length is what has
	// been carved, and every entry past it already holds the ID and name of
	// the VM it is kept for (newVMChunk).
	vmChunk []VM
	// residents is the chunk hosts' resident lists are carved from when
	// they fill up (place).
	residents []*VM

	// placements counts changes to any host's residents (Host.insert and
	// remove) and restores. WorkloadStdDev keeps its result with the count
	// it was computed at, sd and sdAt, and sums the hosts again only once
	// the count moved; sdOK is false until the first sum. hostSums counts
	// the hosts those sums read.
	placements uint64
	sd         float64
	sdAt       uint64
	sdOK       bool
	hostSums   int

	// minCap is the smallest positive capacity of any VM placed so far:
	// with place's capacity check it bounds how many VMs a host can hold
	// (roomFor).
	minCap float64
}

// NewCluster builds a cluster with one Rack per rack-kind vertex of the
// topology graph, each populated with cfg.HostsPerRack empty hosts. The
// racks, the hosts and the lists of each are carved from one array per
// kind: a rack's Hosts is its run of Hosts(), which lists them rack by
// rack.
func NewCluster(g *topology.Graph, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := g.RackNodes()
	if len(nodes) == 0 {
		return nil, errors.New("dcn: topology has no rack nodes")
	}
	per := cfg.HostsPerRack
	c := &Cluster{
		Graph:      g,
		config:     cfg,
		Racks:      make([]*Rack, len(nodes)),
		rackByNode: make([]*Rack, g.NumNodes()),
		hosts:      make([]*Host, len(nodes)*per),
		Deps:       NewDependencyGraph(),
	}
	racks, hosts := make([]Rack, len(nodes)), make([]Host, len(c.hosts))
	for i, nodeID := range nodes {
		r := &racks[i]
		*r = Rack{Index: i, NodeID: nodeID, Hosts: c.hosts[i*per : (i+1)*per : (i+1)*per], ToRCapacity: cfg.ToRCapacity}
		for j := range r.Hosts {
			id := i*per + j
			hosts[id] = Host{ID: id, Index: j, Capacity: cfg.HostCapacity, rack: r, placed: &c.placements}
			r.Hosts[j] = &hosts[id]
		}
		c.Racks[i] = r
		c.rackByNode[nodeID] = r
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.config }

// Hosts returns every host in the cluster, in ID order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Host returns the host with the given ID, or nil.
func (c *Cluster) Host(id int) *Host {
	if id < 0 || id >= len(c.hosts) {
		return nil
	}
	return c.hosts[id]
}

// RackByNode returns the rack whose ToR occupies the given topology
// vertex, or nil.
func (c *Cluster) RackByNode(nodeID int) *Rack {
	if nodeID < 0 || nodeID >= len(c.rackByNode) {
		return nil
	}
	return c.rackByNode[nodeID]
}

// VM returns the VM with the given ID, or nil.
func (c *Cluster) VM(id int) *VM {
	if id < 0 || id >= len(c.vms) {
		return nil
	}
	return c.vms[id]
}

// VMs returns every VM in the cluster, ordered by VM ID.
func (c *Cluster) VMs() []*VM {
	out := make([]*VM, 0, c.numVMs)
	for _, v := range c.vms {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// ErrInsufficientCapacity is returned when a host cannot take a VM —
// constraint (8) of the migration formulation.
var ErrInsufficientCapacity = errors.New("dcn: host lacks capacity for VM")

// ErrDependencyConflict is returned when placing the VM would co-host it
// with a dependent VM — the conflict-graph constraint χ = 0 (Eqn. 7,
// after [18]: two dependent VMs cannot share a physical server).
var ErrDependencyConflict = errors.New("dcn: dependent VMs cannot share a host")

// AddVM creates a VM and places it on the host. Capacity and dependency
// constraints are enforced. The VM is carved from the cluster's current
// chunk of VMs (see VM); one that cannot be placed leaves its entry to the
// next.
func (c *Cluster) AddVM(h *Host, capacity, value float64, delaySensitive bool) (*VM, error) {
	id, n := len(c.vms), len(c.vmChunk)
	if n == cap(c.vmChunk) || c.vmChunk[:n+1][n].ID != id {
		c.newVMChunk(id)
		n = 0
	}
	vm := &c.vmChunk[:n+1][n]
	*vm = VM{ID: id, Name: vm.Name, Capacity: capacity, Value: value, DelaySensitive: delaySensitive}
	if err := c.place(vm, h); err != nil {
		return nil, err
	}
	// The host keeps room for one more VM, so that a move onto a freshly
	// populated host carves nothing.
	if len(h.vms) == cap(h.vms) {
		c.grow(h)
	}
	c.vmChunk = c.vmChunk[:n+1]
	c.vms = append(c.vms, vm)
	c.numVMs++
	return vm, nil
}

// minVMChunk is the fewest VMs newVMChunk makes room for. A chunk holds as
// many VMs as the cluster has made so far when that is more, so the
// chunks double with the fleet.
const minVMChunk = 64

// newVMChunk replaces the VM chunk with a fresh one whose entries hold the
// IDs from id on, each with its name "vm-<ID>" from the process's table
// (vmNamesUpTo).
func (c *Cluster) newVMChunk(id int) {
	chunk := make([]VM, max(minVMChunk, id))
	names := vmNamesUpTo(id + len(chunk))
	for i := range chunk {
		chunk[i].ID, chunk[i].Name = id+i, names[id+i]
	}
	c.vmChunk = chunk[:0]
}

// vmNames is every VM name "vm-<ID>" any cluster of the process has made,
// by ID: immutable strings that every cluster's VMs share, so a cluster
// formats none. The table only grows; a grown table is a new slice that
// shares the old one's strings, published whole.
var vmNames struct {
	mu    sync.Mutex // serializes growth
	table atomic.Pointer[[]string]
}

// vmNamesUpTo returns the name table with at least n names, growing it to
// at least twice its size when it is shorter: the new names are cut from
// one string.
func vmNamesUpTo(n int) []string {
	if t := vmNames.table.Load(); t != nil && len(*t) >= n {
		return *t
	}
	vmNames.mu.Lock()
	defer vmNames.mu.Unlock()
	var old []string
	if t := vmNames.table.Load(); t != nil {
		if len(*t) >= n {
			return *t
		}
		old = *t
	}
	table := make([]string, max(n, 2*len(old)))
	from := copy(table, old)
	var digits [20]byte
	var b strings.Builder
	b.Grow((len(table) - from) * (len("vm-") + decimalLen(len(table))))
	for id := from; id < len(table); id++ {
		b.WriteString("vm-")
		b.Write(strconv.AppendInt(digits[:0], int64(id), 10))
	}
	names := b.String()
	for id := from; id < len(table); id++ {
		n := len("vm-") + decimalLen(id)
		table[id], names = names[:n], names[n:]
	}
	vmNames.table.Store(&table)
	return table
}

// decimalLen is how many digits n >= 0 has in decimal.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

func (c *Cluster) place(vm *VM, h *Host) error {
	if h.Free() < vm.Capacity {
		return fmt.Errorf("%w: host %d free %.1f < need %.1f", ErrInsufficientCapacity, h.ID, h.Free(), vm.Capacity)
	}
	if resident, ok := h.Conflict(c.Deps, vm.ID); ok {
		return fmt.Errorf("%w: vm %d conflicts with resident vm %d on host %d", ErrDependencyConflict, vm.ID, resident, h.ID)
	}
	if vm.Capacity > 0 && (c.minCap == 0 || vm.Capacity < c.minCap) {
		c.minCap = vm.Capacity
	}
	if len(h.vms) == cap(h.vms) {
		c.grow(h)
	}
	h.insert(vm)
	vm.host = h
	return nil
}

// carve cuts n elements off the unused end of *chunk (its length is what
// has been cut, its capacity its size), first replacing it with a fresh
// chunk of at least n, of minResidents, and of twice the old one's size
// when fewer than n are left. What it cuts is capped at n, so an append to
// one list never writes into the next. A list that outgrows its cut moves
// to a new one and leaves the old in the chunk.
func carve[T any](chunk *[]T, n int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, minResidents, 2*cap(c)))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// minResidents is the smallest chunk resident lists are carved from.
const minResidents = 1024

// roomFor is how many VMs host h can ever hold at once: the host's
// capacity over the smallest VM capacity placed so far, since place admits
// no VM the host lacks the room for, and at least one more than it holds.
// It is the ceiling a resident list grows to (grown); past it a list grows
// only when a smaller VM than any before arrives (or a VM of no capacity,
// which no count bounds). It is at most one more than the cluster's VM
// count.
func (c *Cluster) roomFor(h *Host) int {
	n := len(h.vms) + 1
	if c.minCap > 0 {
		n = max(n, int(h.Capacity/c.minCap)+1)
	}
	return min(n, max(len(h.vms), len(c.vms))+1)
}

// grow makes room in h's full resident list: grown(h) slots, in place
// when the list is the last one carved from the chunk and the chunk has
// the room (as when hosts are filled one after another), and otherwise in
// a list carved afresh, leaving the old one behind.
func (c *Cluster) grow(h *Host) {
	n, r := c.grown(h), c.residents
	if at := len(r) - cap(h.vms); cap(h.vms) > 0 && at >= 0 && &r[at:][0] == &h.vms[0] && cap(r)-at >= n {
		c.residents = r[:at+n]
		h.vms = r[at : at+len(h.vms) : at+n]
		return
	}
	h.vms = append(carve(&c.residents, n)[:0], h.vms...)
}

// grown is the length a full resident list of h grows to: twice what the
// host holds, at least minList, never past roomFor. A host's list starts
// at minList and doubles as it fills, so one holding a few VMs keeps a few
// slots, not roomFor's hundred, and once it has held its most VMs the
// moves onto it allocate nothing.
func (c *Cluster) grown(h *Host) int {
	return min(c.roomFor(h), max(minList, 2*len(h.vms)))
}

// minList is the length a host's first resident list is carved at.
const minList = 4

// Move migrates a VM to the destination host, enforcing capacity and
// dependency constraints. On failure the VM stays where it was.
func (c *Cluster) Move(vm *VM, dst *Host) error {
	if vm.host == dst {
		return nil
	}
	src := vm.host
	if src != nil {
		src.remove(vm.ID)
	}
	if err := c.place(vm, dst); err != nil {
		if src != nil {
			src.insert(vm) // restore
			vm.host = src
		}
		return err
	}
	return nil
}

// Remove deletes a VM from the cluster.
func (c *Cluster) Remove(vm *VM) {
	if vm.host != nil {
		vm.host.remove(vm.ID)
		vm.host = nil
	}
	if c.VM(vm.ID) == vm {
		c.vms[vm.ID] = nil
		c.numVMs--
	}
	c.Deps.RemoveVM(vm.ID)
}

// PopulateOptions controls random cluster population for simulations.
type PopulateOptions struct {
	VMsPerHost    int     // how many VMs to attempt per host
	MinCapacity   float64 // uniform VM capacity range (paper: up to 20)
	MaxCapacity   float64
	DelayFraction float64 // fraction of delay-sensitive VMs
	// DependencyProb is the probability of a dependency edge between a
	// new VM and the previous VM when both sit in the same rack (on
	// different hosts — dependent VMs may not share a host).
	DependencyProb float64
	// CrossRackDependencyProb links a new VM to a uniformly chosen
	// earlier VM in another rack — the inter-rack edges of G_d that
	// become fabric flows.
	CrossRackDependencyProb float64
	Seed                    int64
}

// Populate fills every host with random VMs and random dependencies. It
// returns the number of VMs created. Oversubscription is avoided: VMs
// that would not fit are skipped.
func (c *Cluster) Populate(opt PopulateOptions) int {
	rng := rand.New(rand.NewSource(opt.Seed))
	if opt.VMsPerHost <= 0 {
		opt.VMsPerHost = 4
	}
	if opt.MaxCapacity <= 0 {
		opt.MaxCapacity = 20
	}
	if opt.MinCapacity <= 0 {
		opt.MinCapacity = 1
	}
	created := 0
	var prev *VM
	var all []*VM
	for _, h := range c.hosts {
		for k := 0; k < opt.VMsPerHost; k++ {
			capy := opt.MinCapacity + rng.Float64()*(opt.MaxCapacity-opt.MinCapacity)
			if capy > h.Free() {
				continue
			}
			value := 1 + rng.Float64()*9
			ds := rng.Float64() < opt.DelayFraction
			vm, err := c.AddVM(h, capy, value, ds)
			if err != nil {
				continue
			}
			created++
			// Dependencies between VMs on *different* hosts of the same
			// rack (dependent VMs may not share a host).
			if prev != nil && prev.host != nil && prev.host != h &&
				prev.host.rack == h.rack && rng.Float64() < opt.DependencyProb {
				c.Deps.AddDependency(vm.ID, prev.ID)
			}
			// Cross-rack edges of G_d: communicating application tiers
			// spread across racks.
			if len(all) > 0 && rng.Float64() < opt.CrossRackDependencyProb {
				other := all[rng.Intn(len(all))]
				if other.host != nil && other.host.rack != h.rack {
					c.Deps.AddDependency(vm.ID, other.ID)
				}
			}
			prev = vm
			all = append(all, vm)
		}
	}
	return created
}

// WorkloadStdDev returns the standard deviation of per-host workload
// percentages (Used/Capacity × 100) across every host — the metric of
// the paper's Figs. 9–10. The result is kept until a VM is placed,
// moved or removed, or the cluster is restored: a period that changes no
// placement reads it back without summing a host. (VM and host capacities
// are fixed once placed; nothing in the tree writes them after.) Keeping
// the result is a write: callers do not share one cluster's calls across
// goroutines.
func (c *Cluster) WorkloadStdDev() float64 {
	if !c.sdOK || c.sdAt != c.placements {
		c.sd, c.sdAt, c.sdOK = c.workloadStdDev(), c.placements, true
	}
	return c.sd
}

// HostSums returns how many host workloads WorkloadStdDev has summed so
// far: every host on a call after a placement changed, none on a call
// after none did.
func (c *Cluster) HostSums() int { return c.hostSums }

// workloadStdDev is WorkloadStdDev summed afresh over every host.
func (c *Cluster) workloadStdDev() float64 {
	n := len(c.hosts)
	c.hostSums += n
	if n == 0 {
		return 0
	}
	mean := 0.0
	for _, h := range c.hosts {
		mean += h.Utilization() * 100
	}
	mean /= float64(n)
	sum := 0.0
	for _, h := range c.hosts {
		d := h.Utilization()*100 - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n))
}
