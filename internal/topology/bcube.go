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

// NewBCube builds a BCube(n,1) with n² server nodes, at its final size
// (sizedGraph), the ID tables rows of one array.
func NewBCube(cfg BCubeConfig) (*BCube, error) {
	n := cfg.SwitchesPerLevel
	if n < 2 {
		return nil, fmt.Errorf("topology: BCube needs >= 2 switches per level, got %d", n)
	}
	// A switch links to n servers, a server to one switch per level.
	b := newSizedGraph(n*n, 2*n, 2*n*n, nameLen("srv", n))
	bc := &BCube{Config: cfg}

	ids := make([]int, (n+2)*n)
	bc.Level0IDs, bc.Level1IDs, ids = ids[:n:n], ids[n:2*n:2*n], ids[2*n:]
	bc.RackIDs = make([][]int, n)
	for i := range bc.RackIDs {
		bc.RackIDs[i], ids = ids[:n:n], ids[n:]
	}
	for i := 0; i < n; i++ {
		bc.Level0IDs[i] = b.node(Switch, i, 0, n, "l0", i, -1)
	}
	for j := 0; j < n; j++ {
		bc.Level1IDs[j] = b.node(Switch, -1, 1, n, "l1", j, -1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			id := b.node(Rack, i, 0, 2, "srv", i, j)
			bc.RackIDs[i][j] = id
			if err := b.AddLink(id, bc.Level0IDs[i], bcubeLevel0Capacity, bcubeLevel0Distance); err != nil {
				return nil, err
			}
			if err := b.AddLink(id, bc.Level1IDs[j], bcubeLevel1Capacity, bcubeLevel1Distance); err != nil {
				return nil, err
			}
		}
	}
	bc.Graph = b.graph()
	return bc, nil
}
