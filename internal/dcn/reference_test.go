package dcn

// This file holds the map-of-maps dependency graph the product kept until
// the ID-indexed table replaced it, verbatim, as the oracle of
// TestDependencyGraphMatchesReference. Do not "improve" this copy.

import (
	"math/rand"
	"sort"
	"testing"
)

type referenceDependencyGraph struct {
	adj map[int]map[int]bool
}

func newReferenceDependencyGraph() *referenceDependencyGraph {
	return &referenceDependencyGraph{adj: make(map[int]map[int]bool)}
}

func (d *referenceDependencyGraph) AddDependency(a, b int) {
	if a == b {
		return
	}
	d.link(a, b)
	d.link(b, a)
}

func (d *referenceDependencyGraph) link(a, b int) {
	m := d.adj[a]
	if m == nil {
		m = make(map[int]bool)
		d.adj[a] = m
	}
	m[b] = true
}

func (d *referenceDependencyGraph) RemoveDependency(a, b int) {
	delete(d.adj[a], b)
	delete(d.adj[b], a)
}

func (d *referenceDependencyGraph) RemoveVM(id int) {
	for peer := range d.adj[id] {
		delete(d.adj[peer], id)
	}
	delete(d.adj, id)
}

func (d *referenceDependencyGraph) Dependent(a, b int) bool { return d.adj[a][b] }

func (d *referenceDependencyGraph) Peers(id int) []int {
	m := d.adj[id]
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func (d *referenceDependencyGraph) Degree(id int) int { return len(d.adj[id]) }

func (d *referenceDependencyGraph) NumEdges() int {
	total := 0
	for _, m := range d.adj {
		total += len(m)
	}
	return total / 2
}

func (d *referenceDependencyGraph) PeerRacks(c *Cluster, vmID int) []int {
	seen := make(map[int]bool)
	var out []int
	for peer := range d.adj[vmID] {
		vm := c.VM(peer)
		if vm == nil || vm.Host() == nil {
			continue
		}
		idx := vm.Host().Rack().Index
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// TestDependencyGraphMatchesReference drives the table and the map-of-maps
// graph through the same random operations — edges added (many of them
// twice), edges removed (many of them absent), VMs removed, over IDs that
// leave holes and reach past the cluster's VMs — and wants every read to
// agree after every step: Dependent, Peers, Degree, NumEdges, and PeerRacks
// as a set (the reference lists racks in map order).
func TestDependencyGraphMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testCluster(t, 4)
		const ids = 48 // VM IDs 0..31 exist (some get removed), 32..47 never do
		for i := 0; i < 32; i++ {
			h := c.Hosts()[rng.Intn(len(c.Hosts()))]
			vm, err := c.AddVM(h, 1, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if i%7 == 3 {
				c.Remove(vm)
			}
		}
		got, want := c.Deps, newReferenceDependencyGraph()
		for step := 0; step < 600; step++ {
			a, b := rng.Intn(ids), rng.Intn(ids)
			switch op := rng.Intn(10); {
			case op < 6:
				got.AddDependency(a, b)
				want.AddDependency(a, b)
			case op < 9:
				got.RemoveDependency(a, b)
				want.RemoveDependency(a, b)
			default:
				got.RemoveVM(a)
				want.RemoveVM(a)
			}
			if g, w := got.NumEdges(), want.NumEdges(); g != w {
				t.Fatalf("seed %d step %d: NumEdges = %d, reference %d", seed, step, g, w)
			}
			for id := -1; id <= ids; id++ {
				g, w := got.Peers(id), want.Peers(id)
				if len(g) != len(w) || got.Degree(id) != want.Degree(id) {
					t.Fatalf("seed %d step %d: Peers(%d) = %v (degree %d), reference %v (degree %d)",
						seed, step, id, g, got.Degree(id), w, want.Degree(id))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("seed %d step %d: Peers(%d) = %v, reference %v", seed, step, id, g, w)
					}
				}
				for other := -1; other <= ids; other++ {
					if g, w := got.Dependent(id, other), want.Dependent(id, other); g != w {
						t.Fatalf("seed %d step %d: Dependent(%d, %d) = %v, reference %v", seed, step, id, other, g, w)
					}
				}
				gr, wr := got.PeerRacks(c, id, nil), want.PeerRacks(c, id)
				sort.Ints(gr)
				sort.Ints(wr)
				if len(gr) != len(wr) {
					t.Fatalf("seed %d step %d: PeerRacks(%d) = %v, reference %v", seed, step, id, gr, wr)
				}
				for i := range gr {
					if gr[i] != wr[i] {
						t.Fatalf("seed %d step %d: PeerRacks(%d) = %v, reference %v", seed, step, id, gr, wr)
					}
				}
			}
		}
	}
}
