package sheriff

import (
	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/migrate"
	"sheriff/internal/sim"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Profile is one normalized workload profile W = [CPU, MEM, IO, TRF].
	Profile = traces.Profile
	// Alert is one ALERT message.
	Alert = alert.Alert
	// Thresholds holds the per-component ALERT trigger levels.
	Thresholds = alert.Thresholds

	// Cluster models racks, hosts and VMs over a wired topology.
	Cluster = dcn.Cluster
	// CostModel evaluates the Eqn. (1) migration cost.
	CostModel = cost.Model
	// Shim is a rack's delegation node running Algs. 1–4.
	Shim = migrate.Shim

	// SimConfig sizes a simulated DCN.
	SimConfig = sim.Config
	// Simulation is a built simulated DCN.
	Simulation = sim.Sim
	// CompareResult is one Sheriff-vs-centralized data point.
	CompareResult = sim.CompareResult
)

// Topology kinds for SimConfig.Kind.
const (
	FatTree = sim.FatTree
	BCube   = sim.BCube
)

// DefaultThresholds returns 0.9 per profile component.
func DefaultThresholds() Thresholds { return alert.DefaultThresholds() }

// EvaluateAlert applies the ALERT rule of Sec. IV.C to a predicted
// profile.
func EvaluateAlert(p Profile, th Thresholds) (value float64, fired bool) {
	return alert.Evaluate(p, th)
}

// NewFatTreeCluster builds a k-pod Fat-Tree cluster with the given host
// shape and returns it with its cost model and one shim per rack.
func NewFatTreeCluster(pods, hostsPerRack int, hostCapacity float64) (*Cluster, *CostModel, []*Shim, error) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		return nil, nil, nil, err
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{
		HostsPerRack: hostsPerRack,
		HostCapacity: hostCapacity,
		ToRCapacity:  hostCapacity * float64(hostsPerRack),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		return nil, nil, nil, err
	}
	shims := make([]*Shim, 0, len(cluster.Racks))
	params := migrate.DefaultParams()
	for _, r := range cluster.Racks {
		s, err := migrate.NewShim(cluster, model, r, params)
		if err != nil {
			return nil, nil, nil, err
		}
		shims = append(shims, s)
	}
	return cluster, model, shims, nil
}

// BuildSimulation constructs a full simulated DCN.
func BuildSimulation(cfg SimConfig) (*Simulation, error) { return sim.Build(cfg) }

// Compare runs one Sheriff-vs-centralized comparison (one data point of
// the paper's Figs. 11–14).
func Compare(cfg SimConfig) (*CompareResult, error) { return sim.Compare(cfg) }
