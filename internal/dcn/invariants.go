package dcn

import "fmt"

// CheckInvariants verifies the placement state against itself:
//
//   - the host table is in ID order and every host sits in its rack's list
//     at its own index;
//   - a host's residents are strictly ascending by VM ID, each is the VM the
//     cluster knows under that ID, and each points back at the host;
//   - every VM of the cluster is resident on the host it points at —
//     together with the line above, on exactly one host;
//   - no host holds more than its capacity;
//   - the dependency graph is a graph over the cluster's VMs: every peer
//     list strictly ascending, no VM its own peer, every edge listed from
//     both ends, both ends VMs the cluster knows;
//   - no two dependent VMs are resident on one host (χ = 0, Eqn. 7);
//   - a WorkloadStdDev kept since the last placement change equals a sum
//     over the hosts now, bit for bit.
//
// Host.Used and Rack.Used are recomputed from the residents on every call,
// so accounting cannot drift from them; what can go wrong is the resident
// lists, back-pointers and peer lists checked here. Errors name the VMs and
// the host. It is O(hosts + VMs + dependencies) and meant for tests and
// `sheriffd -check`, not for the per-period path.
func (c *Cluster) CheckInvariants() error {
	for id, h := range c.hosts {
		if h.ID != id {
			return fmt.Errorf("dcn: host table slot %d holds host %d", id, h.ID)
		}
		if r := h.rack; r == nil || h.Index >= len(r.Hosts) || r.Hosts[h.Index] != h {
			return fmt.Errorf("dcn: host %d is not at index %d of its rack", h.ID, h.Index)
		}
		for i, vm := range h.vms {
			if i > 0 && h.vms[i-1].ID >= vm.ID {
				return fmt.Errorf("dcn: host %d lists vm %d after vm %d", h.ID, vm.ID, h.vms[i-1].ID)
			}
			if c.VM(vm.ID) != vm {
				return fmt.Errorf("dcn: host %d holds a vm %d the cluster does not know", h.ID, vm.ID)
			}
			if vm.host != h {
				return fmt.Errorf("dcn: vm %d is resident on host %d but points at %s", vm.ID, h.ID, hostName(vm.host))
			}
		}
		if used := h.Used(); used > h.Capacity+1e-9 {
			return fmt.Errorf("dcn: host %d holds %v, over capacity %v", h.ID, used, h.Capacity)
		}
	}
	for _, vm := range c.VMs() { // in ID order: the first violation reported is always the same one
		if c.VM(vm.ID) != vm {
			return fmt.Errorf("dcn: vm %d is registered under another ID", vm.ID)
		}
		if vm.host == nil {
			return fmt.Errorf("dcn: vm %d is on no host", vm.ID)
		}
		// A listed VM points back at the host listing it (above), so being
		// listed here means being listed nowhere else.
		if i, ok := vm.host.find(vm.ID); !ok || vm.host.vms[i] != vm {
			return fmt.Errorf("dcn: vm %d points at host %d, which does not list it", vm.ID, vm.host.ID)
		}
	}
	// Order first, over every list: Dependent, below, searches sorted lists.
	for id, peers := range c.Deps.peers {
		for i, peer := range peers {
			if i > 0 && peers[i-1] >= peer {
				return fmt.Errorf("dcn: vm %d lists peer %d after peer %d", id, peer, peers[i-1])
			}
			if peer == id {
				return fmt.Errorf("dcn: vm %d is its own dependency", id)
			}
		}
	}
	for id, peers := range c.Deps.peers {
		for _, peer := range peers {
			a, b := c.VM(id), c.VM(peer)
			if a == nil || b == nil {
				return fmt.Errorf("dcn: dependency %d–%d names a vm the cluster does not know", id, peer)
			}
			if !c.Deps.Dependent(peer, id) {
				return fmt.Errorf("dcn: vm %d lists peer %d, which does not list it back", id, peer)
			}
			if a.host == b.host {
				return fmt.Errorf("dcn: dependent vms %d and %d share host %d", id, peer, a.host.ID)
			}
		}
	}
	if c.sdOK && c.sdAt == c.placements {
		if sd := c.workloadStdDev(); sd != c.sd {
			return fmt.Errorf("dcn: kept workload std dev %v, the hosts sum to %v with no placement change since", c.sd, sd)
		}
	}
	return nil
}

func hostName(h *Host) string {
	if h == nil {
		return "no host"
	}
	return fmt.Sprintf("host %d", h.ID)
}
