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
// Leaves rack switches at level 0, fully bipartite, at its final size
// (sizedGraph).
func NewLeafSpine(cfg LeafSpineConfig) (*LeafSpine, error) {
	if cfg.Leaves < 1 {
		return nil, fmt.Errorf("topology: leaf-spine needs at least 1 leaf, got %d", cfg.Leaves)
	}
	if cfg.Spines < 0 {
		return nil, fmt.Errorf("topology: leaf-spine spines must be >= 0 (0 = default), got %d", cfg.Spines)
	}
	cfg = cfg.withDefaults()
	leaves, spines := cfg.Leaves, cfg.Spines
	b := newSizedGraph(leaves, spines, leaves*spines, nameLen("spine", max(leaves, spines)))
	ls := &LeafSpine{Config: cfg}
	ids := make([]int, spines+leaves)
	ls.SpineIDs, ls.RackIDs = ids[:spines:spines], ids[spines:]
	for i := range ls.SpineIDs {
		ls.SpineIDs[i] = b.node(Switch, -1, 1, leaves, "spine", i, -1)
	}
	for i := range ls.RackIDs {
		ls.RackIDs[i] = b.node(Rack, i, 0, spines, "leaf", i, -1)
		for _, sp := range ls.SpineIDs {
			if err := b.AddLink(ls.RackIDs[i], sp, leafSpineCapacity, leafSpineDistance); err != nil {
				return nil, err
			}
		}
	}
	ls.Graph = b.graph()
	return ls, nil
}
