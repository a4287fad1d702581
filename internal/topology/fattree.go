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
// The graph is built at its final size (sizedGraph), and the ID tables
// are rows of one array.
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	if cfg.Pods < 2 || cfg.Pods%2 != 0 {
		return nil, fmt.Errorf("topology: Fat-Tree pods must be even and >= 2, got %d", cfg.Pods)
	}
	cfg = cfg.withDefaults()
	k := cfg.Pods
	half := k / 2
	// A ToR links to the half aggregation switches of its pod, an
	// aggregation switch to half ToRs and half cores, a core to one
	// aggregation switch in every pod.
	b := newSizedGraph(k*half, k*half+half*half, 2*k*half*half, nameLen("core", k))
	ft := &FatTree{Config: cfg}

	ids, rows := make([]int, (2*k+half)*half), make([][]int, 2*k+half)
	for r := range rows {
		rows[r], ids = ids[:half:half], ids[half:]
	}
	ft.CoreIDs, ft.AggIDs, ft.RackIDs = rows[:half:half], rows[half:half+k:half+k], rows[half+k:]

	// Core switches: half groups of half switches.
	for grp := 0; grp < half; grp++ {
		for i := 0; i < half; i++ {
			ft.CoreIDs[grp][i] = b.node(Switch, -1, 2, k, "core", grp, i)
		}
	}
	for pod := 0; pod < k; pod++ {
		for j := 0; j < half; j++ {
			ft.AggIDs[pod][j] = b.node(Switch, pod, 1, k, "agg", pod, j)
		}
		for i := 0; i < half; i++ {
			ft.RackIDs[pod][i] = b.node(Rack, pod, 0, half, "tor", pod, i)
		}
		// Full bipartite ToR–aggregation wiring within the pod.
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				if err := b.AddLink(ft.RackIDs[pod][i], ft.AggIDs[pod][j], fatTreeEdgeCapacity, cfg.EdgeDistance); err != nil {
					return nil, err
				}
			}
		}
		// Aggregation j connects to every core switch in group j.
		for j := 0; j < half; j++ {
			for i := 0; i < half; i++ {
				if err := b.AddLink(ft.AggIDs[pod][j], ft.CoreIDs[j][i], fatTreeCoreCapacity, cfg.CoreDistance); err != nil {
					return nil, err
				}
			}
		}
	}
	ft.Graph = b.graph()
	return ft, nil
}
