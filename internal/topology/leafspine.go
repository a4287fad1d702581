package topology

import "fmt"

// LeafSpineConfig parameterizes a two-tier leaf–spine fabric: every leaf
// (ToR rack) links to every spine. Node and edge counts grow linearly in
// Leaves (× Spines), which is what makes 5,000-rack scale scenarios
// affordable — a Fat-Tree with that many racks carries ~1.5× as many
// switches and a deeper diameter for no benefit to the scale harness.
type LeafSpineConfig struct {
	Leaves int // number of leaf (rack) switches; >= 1
	Spines int // number of spine switches; default max(4, Leaves/64), capped at 64
}

// A leaf–spine link's capacity and physical distance.
const (
	leafSpineCapacity float64 = 1
	leafSpineDistance float64 = 1
)

func (c LeafSpineConfig) withDefaults() LeafSpineConfig {
	if c.Spines == 0 {
		c.Spines = c.Leaves / 64
		if c.Spines < 4 {
			c.Spines = 4
		}
		if c.Spines > 64 {
			c.Spines = 64
		}
	}
	return c
}

// LeafSpine describes a built leaf–spine topology.
type LeafSpine struct {
	*Graph
	Config LeafSpineConfig

	RackIDs  []int // node ID of each leaf, in leaf order
	SpineIDs []int // node ID of each spine
}

// NewLeafSpine builds the fabric: Spines spine switches at level 1 and
// Leaves rack switches at level 0, fully bipartite.
func NewLeafSpine(cfg LeafSpineConfig) (*LeafSpine, error) {
	if cfg.Leaves < 1 {
		return nil, fmt.Errorf("topology: leaf-spine needs at least 1 leaf, got %d", cfg.Leaves)
	}
	if cfg.Spines < 0 {
		return nil, fmt.Errorf("topology: leaf-spine spines must be >= 0 (0 = default), got %d", cfg.Spines)
	}
	cfg = cfg.withDefaults()
	g := NewGraph()
	ls := &LeafSpine{Graph: g, Config: cfg}
	ls.SpineIDs = make([]int, cfg.Spines)
	for i := range ls.SpineIDs {
		ls.SpineIDs[i] = g.AddNode(Switch, fmt.Sprintf("spine-%d", i), -1, 1)
	}
	ls.RackIDs = make([]int, cfg.Leaves)
	for i := range ls.RackIDs {
		ls.RackIDs[i] = g.AddNode(Rack, fmt.Sprintf("leaf-%d", i), i, 0)
		for _, sp := range ls.SpineIDs {
			if err := g.AddLink(ls.RackIDs[i], sp, leafSpineCapacity, leafSpineDistance); err != nil {
				return nil, err
			}
		}
	}
	return ls, nil
}
