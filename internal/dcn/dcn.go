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

	"sheriff/internal/topology"
)

// VM is a virtual machine m^k_ij. Capacity is its resource demand in the
// paper's abstract units (the simulations cap it at 20); Value is the
// knapsack value used by the PRIORITY function (lower-value VMs are
// preferred for migration).
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
}

// NewCluster builds a cluster with one Rack per rack-kind vertex of the
// topology graph, each populated with cfg.HostsPerRack empty hosts.
func NewCluster(g *topology.Graph, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Graph:      g,
		config:     cfg,
		rackByNode: make([]*Rack, g.NumNodes()),
	}
	for i, nodeID := range g.Racks() {
		r := &Rack{Index: i, NodeID: nodeID, ToRCapacity: cfg.ToRCapacity}
		for j := 0; j < cfg.HostsPerRack; j++ {
			h := &Host{
				ID:       len(c.hosts),
				Index:    j,
				Capacity: cfg.HostCapacity,
				rack:     r,
				placed:   &c.placements,
			}
			r.Hosts = append(r.Hosts, h)
			c.hosts = append(c.hosts, h)
		}
		c.Racks = append(c.Racks, r)
		c.rackByNode[nodeID] = r
	}
	if len(c.Racks) == 0 {
		return nil, errors.New("dcn: topology has no rack nodes")
	}
	c.Deps = NewDependencyGraph()
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
// constraints are enforced.
func (c *Cluster) AddVM(h *Host, capacity, value float64, delaySensitive bool) (*VM, error) {
	id := len(c.vms)
	vm := &VM{
		ID:             id,
		Name:           "vm-" + strconv.Itoa(id),
		Capacity:       capacity,
		Value:          value,
		DelaySensitive: delaySensitive,
	}
	if err := c.place(vm, h); err != nil {
		return nil, err
	}
	c.vms = append(c.vms, vm)
	c.numVMs++
	return vm, nil
}

func (c *Cluster) place(vm *VM, h *Host) error {
	if h.Free() < vm.Capacity {
		return fmt.Errorf("%w: host %d free %.1f < need %.1f", ErrInsufficientCapacity, h.ID, h.Free(), vm.Capacity)
	}
	if resident, ok := h.Conflict(c.Deps, vm.ID); ok {
		return fmt.Errorf("%w: vm %d conflicts with resident vm %d on host %d", ErrDependencyConflict, vm.ID, resident, h.ID)
	}
	h.insert(vm)
	vm.host = h
	return nil
}

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
