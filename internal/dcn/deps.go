package dcn

import "slices"

// DependencyGraph is G_d of Sec. II.C: an undirected graph over VM IDs in
// which an edge marks two VMs as interdependent (they communicate and,
// per the conflict-graph reading, must not share a physical host).
//
// VM IDs are small and dense (the cluster hands them out in sequence), so
// the graph is a table indexed by VM ID holding each VM's peers in
// ascending order. Edges come and go while the cluster runs, which is why
// each VM keeps its own short list instead of a slice of one packed array.
type DependencyGraph struct {
	peers   [][]int // peers[id]: IDs of the VMs dependent on id, ascending
	version uint64  // bumped by every edit of an edge
}

// NewDependencyGraph returns an empty dependency graph.
func NewDependencyGraph() *DependencyGraph { return &DependencyGraph{} }

// search returns the position of id in an ascending list, or where it
// would be inserted. Peer lists are a handful of entries: a scan beats a
// binary search.
func search(list []int, id int) (int, bool) {
	for i, p := range list {
		if p >= id {
			return i, p == id
		}
	}
	return len(list), false
}

// AddDependency records that VMs a and b are interdependent. Self-edges
// and negative IDs are ignored. The table grows to the larger ID, so IDs
// read from a file are checked before they get here (Cluster.Restore).
func (d *DependencyGraph) AddDependency(a, b int) {
	if a == b || a < 0 || b < 0 {
		return
	}
	if hi := max(a, b); hi >= len(d.peers) {
		d.peers = append(d.peers, make([][]int, hi+1-len(d.peers))...)
	}
	d.link(a, b)
	d.link(b, a)
}

func (d *DependencyGraph) link(a, b int) {
	if i, ok := search(d.peers[a], b); !ok {
		d.peers[a] = slices.Insert(d.peers[a], i, b)
		d.version++
	}
}

func (d *DependencyGraph) unlink(a, b int) {
	if i, ok := search(d.Peers(a), b); ok {
		d.peers[a] = slices.Delete(d.peers[a], i, i+1)
		d.version++
	}
}

// Version counts the graph's edits: it moves whenever an edge is added or
// removed and stays put otherwise, so a reader that derives a table from
// the edges rebuilds it only when this differs from the value it built at.
func (d *DependencyGraph) Version() uint64 { return d.version }

// RemoveDependency deletes the edge a–b if present.
func (d *DependencyGraph) RemoveDependency(a, b int) {
	d.unlink(a, b)
	d.unlink(b, a)
}

// RemoveVM deletes a VM and all its edges.
func (d *DependencyGraph) RemoveVM(id int) {
	if list := d.Peers(id); list != nil {
		for _, peer := range list {
			d.unlink(peer, id)
		}
		d.peers[id] = nil
	}
}

// Dependent reports whether VMs a and b are interdependent.
func (d *DependencyGraph) Dependent(a, b int) bool {
	_, ok := search(d.Peers(a), b)
	return ok
}

// Peers returns the VM IDs dependent on id, in ascending order. The slice
// is the graph's own and stays valid until the next edge of id is added or
// removed: callers read it, they do not modify or keep it.
func (d *DependencyGraph) Peers(id int) []int {
	if id < 0 || id >= len(d.peers) {
		return nil
	}
	return d.peers[id]
}

// Degree returns the number of dependencies of the VM.
func (d *DependencyGraph) Degree(id int) int { return len(d.Peers(id)) }

// NumEdges returns the number of undirected dependency edges.
func (d *DependencyGraph) NumEdges() int {
	total := 0
	for _, list := range d.peers {
		total += len(list)
	}
	return total / 2
}

// PeerRacks appends to buf the distinct rack indices hosting VMs dependent
// on the given VM — the rack-level neighborhood N_d(v_i) used by the
// dependency-cost term of Eqn. (1) — and returns it. Racks come in the
// order the ascending peer list first reaches them, so a sum over them
// adds its terms in the same order on every call and every run.
func (d *DependencyGraph) PeerRacks(c *Cluster, vmID int, buf []int) []int {
	base := len(buf)
peers:
	for _, peer := range d.Peers(vmID) {
		vm := c.VM(peer)
		if vm == nil || vm.host == nil {
			continue
		}
		idx := vm.host.rack.Index
		for _, seen := range buf[base:] {
			if seen == idx {
				continue peers
			}
		}
		buf = append(buf, idx)
	}
	return buf
}
