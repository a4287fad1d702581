package topology

import "fmt"

// FatTreeConfig parameterizes a k-ary Fat-Tree (Al-Fares et al., the
// paper's reference [27]) with the simulation settings of Sec. VI.B:
// available bandwidth 10 between core and aggregation switches, 1 between
// aggregation switches and ToRs.
type FatTreeConfig struct {
	Pods int // k: number of pods; must be even and >= 2

	EdgeDistance float64 // physical distance of a ToR–agg link (default 1)
	CoreDistance float64 // physical distance of an agg–core link (default 2)
}

// A Fat-Tree's link capacities: 1 between a ToR and an aggregation switch,
// 10 between an aggregation and a core switch.
const (
	fatTreeEdgeCapacity float64 = 1
	fatTreeCoreCapacity float64 = 10
)

func (c FatTreeConfig) withDefaults() FatTreeConfig {
	if c.EdgeDistance == 0 {
		c.EdgeDistance = 1
	}
	if c.CoreDistance == 0 {
		c.CoreDistance = 2
	}
	return c
}

// FatTree describes a built Fat-Tree topology.
type FatTree struct {
	*Graph
	Config FatTreeConfig

	// RackIDs[pod][i] is the node ID of the i-th ToR in the pod.
	RackIDs [][]int
	// AggIDs[pod][i] is the node ID of the i-th aggregation switch.
	AggIDs [][]int
	// CoreIDs[g][i] is the node ID of core switch i in core group g.
	CoreIDs [][]int
}

// NewFatTree builds a k-pod Fat-Tree: each pod has k/2 ToR (edge) racks
// and k/2 aggregation switches; there are (k/2)² core switches arranged
// in k/2 groups of k/2. Every ToR links to every aggregation switch in
// its pod; aggregation switch j links to all core switches of group j.
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	if cfg.Pods < 2 || cfg.Pods%2 != 0 {
		return nil, fmt.Errorf("topology: Fat-Tree pods must be even and >= 2, got %d", cfg.Pods)
	}
	cfg = cfg.withDefaults()
	k := cfg.Pods
	half := k / 2
	g := NewGraph()
	ft := &FatTree{Graph: g, Config: cfg}

	// Core switches: half groups of half switches.
	ft.CoreIDs = make([][]int, half)
	for grp := 0; grp < half; grp++ {
		ft.CoreIDs[grp] = make([]int, half)
		for i := 0; i < half; i++ {
			ft.CoreIDs[grp][i] = g.AddNode(Switch, fmt.Sprintf("core-%d-%d", grp, i), -1, 2)
		}
	}
	ft.RackIDs = make([][]int, k)
	ft.AggIDs = make([][]int, k)
	for pod := 0; pod < k; pod++ {
		ft.AggIDs[pod] = make([]int, half)
		ft.RackIDs[pod] = make([]int, half)
		for j := 0; j < half; j++ {
			ft.AggIDs[pod][j] = g.AddNode(Switch, fmt.Sprintf("agg-%d-%d", pod, j), pod, 1)
		}
		for i := 0; i < half; i++ {
			ft.RackIDs[pod][i] = g.AddNode(Rack, fmt.Sprintf("tor-%d-%d", pod, i), pod, 0)
		}
		// Full bipartite ToR–aggregation wiring within the pod.
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				if err := g.AddLink(ft.RackIDs[pod][i], ft.AggIDs[pod][j], fatTreeEdgeCapacity, cfg.EdgeDistance); err != nil {
					return nil, err
				}
			}
		}
		// Aggregation j connects to every core switch in group j.
		for j := 0; j < half; j++ {
			for i := 0; i < half; i++ {
				if err := g.AddLink(ft.AggIDs[pod][j], ft.CoreIDs[j][i], fatTreeCoreCapacity, cfg.CoreDistance); err != nil {
					return nil, err
				}
			}
		}
	}
	return ft, nil
}
