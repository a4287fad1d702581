// Package sim is the round-based migration simulator behind the paper's
// Sec. VI.B evaluation: it builds a Fat-Tree or BCube cluster, populates
// it with VMs, seeds alerts ("five percent of virtual machines in each pod
// raise alerts for migration"), and drives either the regional Sheriff
// shims or the global centralized manager, recording the workload
// standard deviation per round (Figs. 9–10), total migration cost
// (Figs. 11, 13), and search-space size (Figs. 12, 14).
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"sheriff/internal/alert"
	"sheriff/internal/centralized"
	"sheriff/internal/comm"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/kmedian"
	"sheriff/internal/migrate"
	"sheriff/internal/topology"
)

// Kind selects the simulated topology.
type Kind int

const (
	// FatTree simulates a k-pod Fat-Tree (Size = pods).
	FatTree Kind = iota
	// BCube simulates a BCube(n,1) (Size = switches per level).
	BCube
	// LeafSpine simulates a two-tier leaf–spine fabric (Size = leaves).
	// Linear in racks, it is the topology of the hyperscale scenarios.
	LeafSpine
)

// String names the topology kind.
func (k Kind) String() string {
	switch k {
	case FatTree:
		return "fat-tree"
	case BCube:
		return "bcube"
	case LeafSpine:
		return "leaf-spine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// The paper's workload: a VM needs at most vmMaxCapacity, and
// alertFraction of the VMs raise migration alerts. A host holds
// hostCapacity, and two VMs depend on each other with dependencyProb.
const (
	vmMaxCapacity = 20
	alertFraction = 0.05

	hostCapacity   float64 = 100
	dependencyProb float64 = 0.1
)

// Config sizes one simulation. Zero fields take the paper's defaults.
type Config struct {
	Kind Kind
	Size int // pods (FatTree) or switches per level (BCube)

	HostsPerRack int // default 4 (scaled down from 40 for speed)
	VMsPerHost   int // default 4
	Seed         int64

	Migrate migrate.Params
}

func (c Config) withDefaults() Config {
	if c.HostsPerRack <= 0 {
		c.HostsPerRack = 4
	}
	if c.VMsPerHost <= 0 {
		c.VMsPerHost = 4
	}
	c.Migrate = c.Migrate.WithDefaults()
	return c
}

// Sim is one built simulation instance.
type Sim struct {
	Config  Config
	Cluster *dcn.Cluster
	Model   *cost.Model
	Shims   []*migrate.Shim
	Central *centralized.Manager

	rng *rand.Rand
}

// Build constructs the topology, cluster, cost model and one shim per rack.
// The cluster starts empty; call Populate or PopulateSkewed before running.
//
// The model's rows are prepared as the runtime prepares them before its
// shims price moves: every rack's row, regional at the shims' radius
// (cost.Model.RefreshSources), so the shims' reads never sweep in the
// timed episode. A read outside a region (Compare's widened region, the
// centralized manager's cost matrix) sweeps its row in full on demand,
// with the same answers. The distance table is built by the first query
// that names a dependent peer.
//
// The fabric, those rows and the shims' regions depend only on the shape,
// never on the seed. The first Build of a shape constructs them for its
// Sim alone; the next Build of the same shape constructs them once more,
// on a cluster of their own, and it and every later Sim of the shape are
// stamped from that state until a Build of another shape drops it: each
// Sim's fabric is a clone of it (topology.Graph.Clone), its shims read the
// regions walked once on it, and its model reads the rows in place
// (cost.Prepared), copying them at its first write: a refresh, or an
// on-demand full row. Every Sim owns its graph, cluster, shims and model.
func Build(cfg Config) (*Sim, error) { return build(cfg, true) }

// build is Build; with share false the Sim is constructed for itself alone
// and the state Build stamps Sims from is left as it is.
func build(cfg Config, share bool) (*Sim, error) {
	cfg = cfg.withDefaults()
	key := shape{cfg.Kind, cfg.Size, cfg.HostsPerRack, cfg.Migrate.NeighborSwitchHops}
	var tmpl *template
	var err error
	if share {
		if tmpl, err = stamp(cfg, key); err != nil {
			return nil, err
		}
	}
	var g *topology.Graph
	if tmpl != nil {
		g = tmpl.graph.Clone()
	} else if g, err = newGraph(cfg.Kind, cfg.Size); err != nil {
		return nil, err
	}
	cluster, err := newCluster(cfg, g)
	if err != nil {
		return nil, err
	}
	var model *cost.Model
	if tmpl != nil {
		model, err = tmpl.rows.Model(cluster)
	} else {
		model, err = cost.NewDeferred(cluster, cost.PaperParams())
		if err == nil {
			model.RefreshSources(cluster.Graph.RackNodes(), key.hops)
		}
	}
	if err != nil {
		return nil, err
	}
	s := &Sim{
		Config:  cfg,
		Cluster: cluster,
		Model:   model,
		Central: centralized.New(cluster, model),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	// A workspace per shim: BalancingRound returns every alerted shim's
	// tally, which lives in the shim's workspace. Each is a copy of the
	// first made before any round, so every shim is built in the first's
	// shim memory: one set of chunks for them all.
	ws := make([]migrate.Workspace, len(cluster.Racks))
	s.Shims = make([]*migrate.Shim, len(cluster.Racks))
	for i, r := range cluster.Racks {
		if i > 0 {
			ws[i] = ws[0]
		}
		if s.Shims[i], err = migrate.NewShim(cluster, model, r, cfg.Migrate, &ws[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newCluster builds an empty cluster of cfg's over g.
func newCluster(cfg Config, g *topology.Graph) (*dcn.Cluster, error) {
	return dcn.NewCluster(g, dcn.Config{
		HostsPerRack: cfg.HostsPerRack,
		HostCapacity: hostCapacity,
		ToRCapacity:  hostCapacity * float64(cfg.HostsPerRack),
	})
}

// shape is what a Sim's fabric, shim regions and prepared cost rows
// depend on: the fabric, the cluster over it and the shims' radius,
// everything of cfg but the seed and the migration policy's other knobs.
type shape struct {
	kind               Kind
	size, hostsPerRack int
	hops               int
}

// template is a shape's pristine state, built on a cluster no Sim reaches:
// the fabric Sims clone, and the rows swept on it. No Sim writes it; its
// fabric only gains the rack-neighbour lists its clones walk.
type template struct {
	graph *topology.Graph
	rows  *cost.Prepared
}

// prepared is the shape Build last built, and its template once a Build
// has repeated it.
var prepared struct {
	sync.Mutex
	shape shape
	tmpl  *template
}

// stamp returns key's template, building it first when key is the shape
// Build last built and it is not built yet. For any other shape it returns
// nil and records key as the last built, dropping the template of the
// shape before.
func stamp(cfg Config, key shape) (*template, error) {
	prepared.Lock()
	defer prepared.Unlock()
	if prepared.shape != key {
		prepared.shape, prepared.tmpl = key, nil
		return nil, nil
	}
	if prepared.tmpl == nil {
		g, err := newGraph(cfg.Kind, cfg.Size)
		if err != nil {
			return nil, err
		}
		cluster, err := newCluster(cfg, g)
		if err != nil {
			return nil, err
		}
		rows, err := cost.Prepare(cluster, cost.PaperParams(), g.RackNodes(), key.hops)
		if err != nil {
			return nil, err
		}
		prepared.tmpl = &template{graph: g, rows: rows}
	}
	return prepared.tmpl, nil
}

// Populate fills the cluster uniformly at random.
func (s *Sim) Populate() int {
	return s.Cluster.Populate(dcn.PopulateOptions{
		VMsPerHost:     s.Config.VMsPerHost,
		MinCapacity:    1,
		MaxCapacity:    vmMaxCapacity,
		DependencyProb: dependencyProb,
		Seed:           s.Config.Seed,
	})
}

// PopulateHotPods loads the racks of the first `hotFraction` of pods to
// `hotLoad` of capacity and the remaining pods to `coolLoad` — the
// hotspot regime of the Figs. 11–14 comparison, where some alerted VMs
// must cross pods and a centralized manager's joint optimization can
// undercut greedy regional placement.
func (s *Sim) PopulateHotPods(hotFraction, hotLoad, coolLoad float64) int {
	maxPod := 0
	for _, r := range s.Cluster.Racks {
		if p := s.Cluster.Graph.Node(r.NodeID).Pod; p > maxPod {
			maxPod = p
		}
	}
	hotPods := int(float64(maxPod+1) * hotFraction)
	created := 0
	for _, r := range s.Cluster.Racks {
		load := coolLoad
		if s.Cluster.Graph.Node(r.NodeID).Pod < hotPods {
			load = hotLoad
		}
		for _, h := range r.Hosts {
			target := load * h.Capacity
			for h.Used() < target {
				capy := 1 + s.rng.Float64()*(vmMaxCapacity-1)
				if capy > h.Free() {
					break
				}
				if _, err := s.Cluster.AddVM(h, capy, 1+s.rng.Float64()*9, false); err != nil {
					break
				}
				created++
			}
		}
	}
	return created
}

// PopulateSkewed loads the first `hotFraction` of each rack's hosts close
// to capacity and leaves the rest lightly loaded — the unbalanced starting
// state whose decay Figs. 9–10 track.
func (s *Sim) PopulateSkewed(hotFraction float64) int {
	if hotFraction <= 0 || hotFraction > 1 {
		hotFraction = 0.5
	}
	created := 0
	for _, r := range s.Cluster.Racks {
		hot := int(float64(len(r.Hosts)) * hotFraction)
		if hot < 1 {
			hot = 1
		}
		for i, h := range r.Hosts {
			target := 0.15 * h.Capacity
			if i < hot {
				target = 0.9 * h.Capacity
			}
			for h.Used() < target {
				capy := 1 + s.rng.Float64()*(vmMaxCapacity-1)
				if capy > h.Free() {
					break
				}
				if _, err := s.Cluster.AddVM(h, capy, 1+s.rng.Float64()*9, false); err != nil {
					break
				}
				created++
			}
		}
	}
	return created
}

// BalancingRound fires one management round of the Figs. 9–10 experiment:
// every shim inspects its rack, raises a server alert for each host whose
// utilization exceeds the cluster mean by more than `margin` (as the
// pre-alert predictor would), and processes the alerts. It returns the
// workload standard deviation after the round and each alerted shim's
// tally (in the shim's own workspace, valid until that shim's next round).
func (s *Sim) BalancingRound(margin float64) (float64, []*migrate.Tally, error) {
	mean := 0.0
	hosts := s.Cluster.Hosts()
	for _, h := range hosts {
		mean += h.Utilization()
	}
	mean /= float64(len(hosts))

	var reports []*migrate.Tally
	for _, shim := range s.Shims {
		var alerts []alert.Alert
		for _, h := range shim.Rack.Hosts {
			if h.Utilization() > mean+margin {
				alerts = append(alerts, alert.Alert{
					Kind:   alert.FromServer,
					HostID: h.ID,
					Value:  h.Utilization(),
				})
			}
		}
		if len(alerts) == 0 {
			continue
		}
		rep, err := shim.ProcessAlerts(alerts)
		if err != nil {
			return 0, nil, fmt.Errorf("sim: shim %d: %w", shim.Rack.Index, err)
		}
		reports = append(reports, rep)
	}
	return s.Cluster.WorkloadStdDev(), reports, nil
}

// RunBalancing runs `rounds` balancing rounds and returns the workload
// standard deviation series, starting with the pre-migration value —
// exactly the curves of Figs. 9 (Fat-Tree) and 10 (BCube).
func (s *Sim) RunBalancing(rounds int, margin float64) ([]float64, error) {
	if rounds < 1 {
		return nil, errors.New("sim: rounds must be >= 1")
	}
	out := make([]float64, 0, rounds+1)
	out = append(out, s.Cluster.WorkloadStdDev())
	for i := 0; i < rounds; i++ {
		sd, _, err := s.BalancingRound(margin)
		if err != nil {
			return nil, err
		}
		out = append(out, sd)
	}
	return out, nil
}

// SeedAlerts marks the paper's "5% of VMs in each pod" (here: each rack)
// as raising migration alerts and returns them indexed by rack index; a
// rack with no VM has none. Selection is deterministic under the sim seed.
// The racks' lists are capped segments of one array, whose tail is the
// scratch a rack's VMs are drawn from.
func (s *Sim) SeedAlerts() [][]*dcn.VM {
	alerted := func(vms int) int {
		n := int(float64(vms) * alertFraction)
		if n < 1 && vms > 0 {
			n = 1
		}
		return n
	}
	total, most := 0, 0
	for _, r := range s.Cluster.Racks {
		vms := 0
		for _, h := range r.Hosts {
			vms += len(h.Residents())
		}
		total += alerted(vms)
		most = max(most, vms)
	}
	out := make([][]*dcn.VM, len(s.Cluster.Racks))
	arena := make([]*dcn.VM, total+most)
	flat, vms := arena[:0:total], arena[total:total]
	for _, r := range s.Cluster.Racks {
		vms = vms[:0]
		for _, h := range r.Hosts {
			vms = append(vms, h.Residents()...)
		}
		slices.SortFunc(vms, func(a, b *dcn.VM) int { return cmp.Compare(a.ID, b.ID) })
		n := alerted(len(vms))
		s.rng.Shuffle(len(vms), func(i, j int) { vms[i], vms[j] = vms[j], vms[i] })
		if n == 0 {
			continue
		}
		for _, vm := range vms[:n] {
			vm.Alert = 0.9 + 0.1*s.rng.Float64()
		}
		start := len(flat)
		flat = append(flat, vms[:n]...)
		out[r.Index] = flat[start:len(flat):len(flat)]
	}
	return out
}

// RunChaos seeds the paper's 5% alerts and relocates them with the
// message-passing REQUEST/ACK/REJECT protocol of Alg. 4 over a bus the
// seeded fault plan perturbs — the `sheriffsim -mode dist` and `-mode
// chaos` entry point. The zero Plan is a lossless bus. The bus takes the
// DistOptions recorder, so one recorder captures wire faults and protocol
// decisions interleaved.
func (s *Sim) RunChaos(plan faults.Plan, opts migrate.DistOptions) (*migrate.DistResult, error) {
	inj, err := faults.New(plan)
	if err != nil {
		return nil, err
	}
	alerts := s.SeedAlerts()
	vmSets := make([][]*dcn.VM, len(s.Shims))
	for i, shim := range s.Shims {
		vmSets[i] = alerts[shim.Rack.Index]
	}
	bus := comm.NewBus(comm.Options{Recorder: opts.Recorder, Injector: inj})
	return migrate.DistributedVMMigration(s.Cluster, s.Model, bus, s.Shims, vmSets, opts)
}

// CompareResult holds one Sheriff-vs-centralized comparison (one data
// point of Figs. 11–14).
type CompareResult struct {
	Racks             int
	VMs               int
	Alerted           int
	SheriffCost       float64
	CentralCost       float64
	SheriffSpace      int
	CentralSpace      int
	SheriffMigrations int
	CentralMigrations int
}

// Compare builds two identical clusters from cfg, seeds the same alerts in
// both, then migrates the alerted VMs with regional Sheriff shims in one
// and the centralized manager in the other, returning cost and search
// space for each — one x-axis point of Figs. 11–14.
//
// The clusters are populated with pod-level hotspots: racks in hot pods
// run near capacity, so part of the alerted load must cross pods. The
// regional shim tries its one-hop region first and escalates to a wider
// region only for VMs its neighbors reject (the "recalculate possible
// migration destinations" path of Alg. 3); the centralized manager solves
// the whole placement jointly.
func Compare(cfg Config) (*CompareResult, error) {
	// Both Sims sweep rows in full (the widened region, the cost matrix),
	// so shared rows would only add the copy each then takes.
	regional, err := build(cfg, false)
	if err != nil {
		return nil, err
	}
	global, err := build(cfg, false)
	if err != nil {
		return nil, err
	}
	return compareOn(regional, global)
}

// compareOn is Compare on two freshly built, identical Sims.
func compareOn(regional, global *Sim) (*CompareResult, error) {
	regional.PopulateHotPods(0.5, 0.85, 0.35)
	global.PopulateHotPods(0.5, 0.85, 0.35)

	alertsR := regional.SeedAlerts()
	alertsG := global.SeedAlerts()

	res := &CompareResult{
		Racks: len(regional.Cluster.Racks),
		VMs:   len(regional.Cluster.VMs()),
	}
	for _, vms := range alertsR {
		res.Alerted += len(vms)
	}

	// Regional: each shim migrates its own alerted VMs within its region.
	// Per Eqn. (6) an alerted VM leaves its rack (v_p ∈ N(v_i)), so the
	// candidate pool is the neighbor racks' hosts; leftovers escalate to
	// the widened region.
	for _, shim := range regional.Shims {
		vms := alertsR[shim.Rack.Index]
		if len(vms) == 0 {
			continue
		}
		remaining := vms
		for _, hops := range []int{regional.Config.Migrate.NeighborSwitchHops, wideHops} {
			if len(remaining) == 0 {
				break
			}
			hosts := regionHosts(regional.Cluster, shim.Rack, hops)
			if len(hosts) == 0 {
				continue
			}
			mr, err := migrate.Migrate(regional.Cluster, regional.Model, remaining, hosts, migrate.MigrationOptions{ForbidSameRack: true, Shim: migrate.ShimUnknown})
			if err != nil {
				return nil, fmt.Errorf("sim: regional migration rack %d: %w", shim.Rack.Index, err)
			}
			res.SheriffCost += mr.TotalCost
			res.SheriffSpace += mr.SearchSpace
			res.SheriffMigrations += len(mr.Migrations)
			remaining = mr.Unplaced
		}
	}

	// Centralized: one manager, global candidate pool, all alerted VMs.
	var all []*dcn.VM
	for _, vms := range alertsG {
		all = append(all, vms...)
	}
	mg, err := migrate.Migrate(global.Cluster, global.Model, all, global.Cluster.Hosts(), migrate.MigrationOptions{ForbidSameRack: true, Shim: migrate.ShimUnknown})
	if err != nil {
		return nil, fmt.Errorf("sim: centralized migration: %w", err)
	}
	res.CentralCost = mg.TotalCost
	res.CentralSpace = mg.SearchSpace
	res.CentralMigrations = len(mg.Migrations)
	return res, nil
}

// PlanningResult is one Sec. V.A destination-planning comparison point:
// the Alg. 5 Local Search plan (APP) against the branch-and-bound optimum
// (OPT) over the same alerted-rack clients — the planning view of the
// Figs. 11/13 Sheriff-vs-optimal curves, now feasible at the paper's
// 48-pod scale.
type PlanningResult struct {
	Racks   int // facilities (all ToRs)
	Clients int // alerted source racks
	K       int // destination ToRs planned

	LocalCost  float64
	LocalSwaps int

	HasExact  bool // false when the exact reference was skipped
	ExactCost float64
}

// Ratio returns LocalCost/ExactCost (1 = optimal), or 0 without an exact
// reference.
func (r *PlanningResult) Ratio() float64 {
	if !r.HasExact || r.ExactCost == 0 {
		return 0
	}
	return r.LocalCost / r.ExactCost
}

// ComparePlanning builds the cluster, seeds the paper's 5% alerts, and
// solves the k-median destination plan for the alerted racks with Local
// Search — and, when exact is set, with the branch-and-bound optimum as
// the OPT reference. k ≤ 0 defaults to one destination per four alerted
// racks.
func ComparePlanning(cfg Config, k, p int, exact bool) (*PlanningResult, error) {
	s, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	s.PopulateHotPods(0.5, 0.85, 0.35)
	alerts := s.SeedAlerts()
	var clients []int
	for idx, vms := range alerts {
		if len(vms) > 0 {
			clients = append(clients, idx)
		}
	}
	if len(clients) == 0 {
		return nil, errors.New("sim: no alerted racks to plan for")
	}
	if k <= 0 {
		k = len(clients) / 4
	}
	if k < 1 {
		k = 1
	}
	if k > len(s.Cluster.Racks) {
		k = len(s.Cluster.Racks)
	}

	res := &PlanningResult{Racks: len(s.Cluster.Racks), Clients: len(clients), K: k}
	ls, err := s.Central.PlanDestinations(clients, centralized.PlanOptions{K: k, P: p, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("sim: planning local search: %w", err)
	}
	res.LocalCost = ls.Cost
	res.LocalSwaps = ls.Swaps

	if exact {
		ex, err := s.Central.PlanDestinations(clients, centralized.PlanOptions{K: k, Exact: true})
		if err != nil {
			return nil, fmt.Errorf("sim: planning exact: %w", err)
		}
		res.ExactCost = ex.Cost
		res.HasExact = true
		if ls.Cost < ex.Cost-1e-9 {
			return nil, fmt.Errorf("sim: local search %v beat the exact optimum %v", ls.Cost, ex.Cost)
		}
		if bound := kmedian.ApproximationRatio(p)*ex.Cost + 1e-9; ls.Cost > bound {
			return nil, fmt.Errorf("sim: local search %v violates the %v×OPT guarantee (OPT %v)",
				ls.Cost, kmedian.ApproximationRatio(p), ex.Cost)
		}
	}
	return res, nil
}

// wideHops is the escalation radius: enough switch hops to cross the core
// of a Fat-Tree (ToR→agg→core→agg→ToR) or both BCube levels.
const wideHops = 3

// regionHosts collects the hosts of every rack within `hops` switch hops
// of the origin rack (excluding the origin itself).
func regionHosts(c *dcn.Cluster, origin *dcn.Rack, hops int) []*dcn.Host {
	var out []*dcn.Host
	for _, nodeID := range c.Graph.RackNeighbors(origin.NodeID, hops) {
		if r := c.RackByNode(nodeID); r != nil {
			out = append(out, r.Hosts...)
		}
	}
	return out
}
