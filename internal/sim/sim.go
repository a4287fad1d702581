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
	"time"

	"sheriff/internal/alert"
	"sheriff/internal/centralized"
	"sheriff/internal/comm"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/kmedian"
	"sheriff/internal/migrate"
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
// alertFraction of the VMs raise migration alerts.
const (
	vmMaxCapacity = 20
	alertFraction = 0.05
)

// Config sizes one simulation. Zero fields take the paper's defaults.
type Config struct {
	Kind Kind
	Size int // pods (FatTree) or switches per level (BCube)

	HostsPerRack   int     // default 4 (scaled down from 40 for speed)
	HostCapacity   float64 // default 100
	VMsPerHost     int     // default 4
	DependencyProb float64 // default 0.1
	Seed           int64

	Migrate migrate.Params
	Cost    cost.Params
}

func (c Config) withDefaults() Config {
	if c.HostsPerRack <= 0 {
		c.HostsPerRack = 4
	}
	if c.HostCapacity <= 0 {
		c.HostCapacity = 100
	}
	if c.VMsPerHost <= 0 {
		c.VMsPerHost = 4
	}
	if c.DependencyProb == 0 {
		c.DependencyProb = 0.1
	}
	c.Migrate = c.Migrate.WithDefaults()
	if c.Cost == (cost.Params{}) {
		c.Cost = cost.PaperParams()
	}
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
// The model's rows are prepared here, as the runtime prepares them before
// its shims price moves: every rack's row, regional at the shims' radius
// (cost.Model.RefreshSources), so the shims' reads never sweep in the
// timed episode. A read outside a region (Compare's widened region, the
// centralized manager's cost matrix) sweeps its row in full on demand,
// with the same answers. The distance table is built by the first query
// that names a dependent peer.
func Build(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	g, err := newGraph(cfg.Kind, cfg.Size)
	if err != nil {
		return nil, err
	}
	cluster, err := dcn.NewCluster(g, dcn.Config{
		HostsPerRack: cfg.HostsPerRack,
		HostCapacity: cfg.HostCapacity,
		ToRCapacity:  cfg.HostCapacity * float64(cfg.HostsPerRack),
	})
	if err != nil {
		return nil, err
	}
	model, err := cost.NewDeferred(cluster, cfg.Cost)
	if err != nil {
		return nil, err
	}
	model.RefreshSources(g.RackNodes(), cfg.Migrate.NeighborSwitchHops)
	s := &Sim{
		Config:  cfg,
		Cluster: cluster,
		Model:   model,
		Central: centralized.New(cluster, model),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, r := range cluster.Racks {
		shim, err := migrate.NewShim(cluster, model, r, cfg.Migrate)
		if err != nil {
			return nil, err
		}
		s.Shims = append(s.Shims, shim)
	}
	return s, nil
}

// Populate fills the cluster uniformly at random.
func (s *Sim) Populate() int {
	return s.Cluster.Populate(dcn.PopulateOptions{
		VMsPerHost:     s.Config.VMsPerHost,
		MinCapacity:    1,
		MaxCapacity:    vmMaxCapacity,
		DependencyProb: s.Config.DependencyProb,
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
// workload standard deviation after the round and the per-round report.
func (s *Sim) BalancingRound(margin float64) (float64, []*migrate.Report, error) {
	mean := 0.0
	hosts := s.Cluster.Hosts()
	for _, h := range hosts {
		mean += h.Utilization()
	}
	mean /= float64(len(hosts))

	var reports []*migrate.Report
	for _, shim := range s.Shims {
		var alerts []alert.Alert
		for _, h := range shim.Rack.Hosts {
			if h.Utilization() > mean+margin {
				alerts = append(alerts, alert.Alert{
					Kind:      alert.FromServer,
					HostID:    h.ID,
					RackIndex: shim.Rack.Index,
					Value:     h.Utilization(),
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
// The racks' lists are capped segments of one array.
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
	flat := make([]*dcn.VM, 0, total)
	vms := make([]*dcn.VM, 0, most)
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
	regional, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	global, err := Build(cfg)
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
	LocalTime  time.Duration

	HasExact  bool // false when the exact reference was skipped
	ExactCost float64
	ExactTime time.Duration
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
	start := time.Now()
	ls, err := s.Central.PlanDestinationsOpts(clients, centralized.PlanOptions{K: k, P: p, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("sim: planning local search: %w", err)
	}
	res.LocalTime = time.Since(start)
	res.LocalCost = ls.Cost
	res.LocalSwaps = ls.Swaps

	if exact {
		start = time.Now()
		ex, err := s.Central.PlanDestinationsOpts(clients, centralized.PlanOptions{K: k, Exact: true})
		if err != nil {
			return nil, fmt.Errorf("sim: planning exact: %w", err)
		}
		res.ExactTime = time.Since(start)
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
