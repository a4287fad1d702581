package topology

import "fmt"

// BCubeConfig parameterizes a BCube(n, 1): the two-level server-centric
// topology of the paper's Sec. VI.B simulations, where "the number of
// switches each level of Bcube" is swept along the x-axis of Figs. 13–14.
// BCube(n,1) has n level-0 switches, n level-1 switches, and n² server
// nodes; server (i, j) attaches to level-0 switch i and level-1 switch j.
//
// BCube is server-centric: servers relay traffic and act as the natural
// delegation points, so each server node is modeled as a Rack (a
// delegation unit with its own shim and VM slots). A node's one-hop wired
// region is then the n−1 peers behind its level-0 switch plus the n−1
// peers behind its level-1 switch — a genuinely regional neighborhood,
// unlike the global view of the centralized manager.
type BCubeConfig struct {
	SwitchesPerLevel int // n: switches in each of the two levels
}

// A BCube's links: a level-0 (group) link has capacity 1 and distance 1,
// a level-1 (cross-group) link capacity 10 and distance 2.
const (
	bcubeLevel0Capacity float64 = 1
	bcubeLevel1Capacity float64 = 10
	bcubeLevel0Distance float64 = 1
	bcubeLevel1Distance float64 = 2
)

// BCube describes a built BCube(n,1) topology.
type BCube struct {
	*Graph
	Config BCubeConfig

	// RackIDs[i][j] is the node ID of server node (group i, position j).
	RackIDs [][]int
	// Level0IDs[i] is the node ID of level-0 switch i.
	Level0IDs []int
	// Level1IDs[j] is the node ID of level-1 switch j.
	Level1IDs []int
}

// NewBCube builds a BCube(n,1) with n² server nodes.
func NewBCube(cfg BCubeConfig) (*BCube, error) {
	n := cfg.SwitchesPerLevel
	if n < 2 {
		return nil, fmt.Errorf("topology: BCube needs >= 2 switches per level, got %d", n)
	}
	g := NewGraph()
	b := &BCube{Graph: g, Config: cfg}

	b.Level0IDs = make([]int, n)
	b.Level1IDs = make([]int, n)
	for i := 0; i < n; i++ {
		b.Level0IDs[i] = g.AddNode(Switch, fmt.Sprintf("l0-%d", i), i, 0)
	}
	for j := 0; j < n; j++ {
		b.Level1IDs[j] = g.AddNode(Switch, fmt.Sprintf("l1-%d", j), -1, 1)
	}
	b.RackIDs = make([][]int, n)
	for i := 0; i < n; i++ {
		b.RackIDs[i] = make([]int, n)
		for j := 0; j < n; j++ {
			id := g.AddNode(Rack, fmt.Sprintf("srv-%d-%d", i, j), i, 0)
			b.RackIDs[i][j] = id
			if err := g.AddLink(id, b.Level0IDs[i], bcubeLevel0Capacity, bcubeLevel0Distance); err != nil {
				return nil, err
			}
			if err := g.AddLink(id, b.Level1IDs[j], bcubeLevel1Capacity, bcubeLevel1Distance); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}
