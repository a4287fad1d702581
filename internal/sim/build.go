package sim

import (
	"fmt"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/runtime"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// ParseKind resolves a topology by the name its String returns.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "fat-tree":
		return FatTree, nil
	case "bcube":
		return BCube, nil
	case "leaf-spine":
		return LeafSpine, nil
	default:
		return 0, fmt.Errorf("sim: unknown topology %q (want fat-tree, bcube, or leaf-spine)", s)
	}
}

// newGraph builds the fabric of the given kind and size (Fat-Tree pods,
// BCube switches per level, leaf-spine leaves).
func newGraph(kind Kind, size int) (*topology.Graph, error) {
	switch kind {
	case FatTree:
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: size})
		if err != nil {
			return nil, err
		}
		return ft.Graph, nil
	case BCube:
		b, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: size})
		if err != nil {
			return nil, err
		}
		return b.Graph, nil
	case LeafSpine:
		ls, err := topology.NewLeafSpine(topology.LeafSpineConfig{Leaves: size})
		if err != nil {
			return nil, err
		}
		return ls.Graph, nil
	default:
		return nil, fmt.Errorf("sim: unknown topology kind %d", kind)
	}
}

// RuntimeConfig sizes the assembled-system build shared by sheriffd and
// its tests: topology, cluster shape, and the deterministic seed. Zero
// fields take the daemon's defaults.
type RuntimeConfig struct {
	Kind           Kind    `json:"kind"`
	Size           int     `json:"size"`
	HostsPerRack   int     `json:"hosts_per_rack"`  // default 2
	VMsPerHost     int     `json:"vms_per_host"`    // default 3
	DependencyProb float64 `json:"dependency_prob"` // default 0.5
	Seed           int64   `json:"seed"`
	// TraceKind selects the trace-generator family ("" = diurnal); it is
	// part of the config identity a daemon snapshot is checked against.
	TraceKind string `json:"trace_kind,omitempty"`
}

func (c RuntimeConfig) withDefaults() RuntimeConfig {
	if c.HostsPerRack <= 0 {
		c.HostsPerRack = 2
	}
	if c.VMsPerHost <= 0 {
		c.VMsPerHost = 3
	}
	if c.DependencyProb == 0 {
		c.DependencyProb = 0.5
	}
	return c
}

// BuildCluster constructs the topology, an empty cluster over it, and a
// paper-parameter cost model — the pieces runtime.Restore needs before
// overlaying a snapshot. The model is deferred (cost.NewDeferred): the
// runtime's management phase refreshes it before any shim prices a move,
// so sweeping every rack's tables here would only delay the first period
// (about 15 s at 5,000 racks).
func BuildCluster(cfg RuntimeConfig) (*dcn.Cluster, *cost.Model, error) {
	cfg = cfg.withDefaults()
	g, err := newGraph(cfg.Kind, cfg.Size)
	if err != nil {
		return nil, nil, err
	}
	cluster, err := dcn.NewCluster(g, dcn.Config{
		HostsPerRack: cfg.HostsPerRack,
		HostCapacity: 100,
		ToRCapacity:  100 * float64(cfg.HostsPerRack),
	})
	if err != nil {
		return nil, nil, err
	}
	model, err := cost.NewDeferred(cluster, cost.PaperParams())
	if err != nil {
		return nil, nil, err
	}
	return cluster, model, nil
}

// BuildRuntime populates a fresh cluster from cfg and assembles the
// runtime around it. Use BuildCluster + runtime.Restore instead when
// resuming from a snapshot.
func BuildRuntime(cfg RuntimeConfig, opts runtime.Options) (*runtime.Runtime, error) {
	cluster, model, err := BuildCluster(cfg)
	if err != nil {
		return nil, err
	}
	return assemble(cluster, model, cfg, opts)
}

// Reporters opens the metric reporters of a freshly built runtime's VMs,
// as sheriffd does on a fresh start: each VM's stream from the runtime's
// trace generator, keyed by the rack the VM is admitted on, from period 0.
func Reporters(rt *runtime.Runtime) *traces.Reporters {
	admission := make(map[int]int)
	for _, vm := range rt.Cluster.VMs() {
		admission[vm.ID] = vm.Host().Rack().Index
	}
	return traces.NewReporters(rt.TraceGen(), admission, 0)
}

// assemble populates an empty cluster from cfg and builds the runtime over
// it and model: BuildRuntime past BuildCluster, so a test can hand it an
// eager model.
func assemble(cluster *dcn.Cluster, model *cost.Model, cfg RuntimeConfig, opts runtime.Options) (*runtime.Runtime, error) {
	cfg = cfg.withDefaults()
	cluster.Populate(dcn.PopulateOptions{
		VMsPerHost:              cfg.VMsPerHost,
		MinCapacity:             5,
		MaxCapacity:             20,
		DependencyProb:          cfg.DependencyProb,
		CrossRackDependencyProb: cfg.DependencyProb,
		Seed:                    cfg.Seed,
	})
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	if cfg.TraceKind != "" && opts.Traces.Kind == traces.Diurnal {
		kind, err := traces.ParseKind(cfg.TraceKind)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		opts.Traces.Kind = kind
	}
	return runtime.New(cluster, model, opts)
}
