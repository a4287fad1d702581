package dcn

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Snapshot is a serializable record of a cluster's logical state: VM
// placements and the dependency graph. The topology itself is not
// serialized — a snapshot is applied to a freshly built cluster with the
// same shape (checked by rack/host counts), which keeps experiment
// checkpoints small and topology construction in code.
type Snapshot struct {
	Racks int        `json:"racks"`
	Hosts int        `json:"hosts"`
	VMs   []VMRecord `json:"vms"`
	Deps  [][2]int   `json:"deps"`
}

// VMRecord is one VM's serialized placement.
type VMRecord struct {
	ID             int     `json:"id"`
	Name           string  `json:"name"`
	Capacity       float64 `json:"capacity"`
	Value          float64 `json:"value"`
	DelaySensitive bool    `json:"delay_sensitive,omitempty"`
	Alert          float64 `json:"alert,omitempty"`
	HostID         int     `json:"host"`
}

// Snapshot captures the cluster's current VM placements and dependencies.
func (c *Cluster) Snapshot() *Snapshot {
	s := &Snapshot{Racks: len(c.Racks), Hosts: len(c.hosts)}
	vms := c.VMs()
	for _, vm := range vms {
		hostID := -1
		if vm.Host() != nil {
			hostID = vm.Host().ID
		}
		s.VMs = append(s.VMs, VMRecord{
			ID: vm.ID, Name: vm.Name, Capacity: vm.Capacity, Value: vm.Value,
			DelaySensitive: vm.DelaySensitive, Alert: vm.Alert, HostID: hostID,
		})
	}
	seen := make(map[[2]int]bool)
	for _, vm := range vms {
		for _, peer := range c.Deps.Peers(vm.ID) {
			a, b := vm.ID, peer
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if !seen[key] {
				seen[key] = true
				s.Deps = append(s.Deps, key)
			}
		}
	}
	sort.Slice(s.Deps, func(i, j int) bool {
		if s.Deps[i][0] != s.Deps[j][0] {
			return s.Deps[i][0] < s.Deps[j][0]
		}
		return s.Deps[i][1] < s.Deps[j][1]
	})
	return s
}

// Restore applies a snapshot to this cluster. The cluster must be empty
// and shaped identically (same rack and host counts). VM IDs are
// preserved so dependency edges and external references stay valid.
func (c *Cluster) Restore(s *Snapshot) error {
	if len(c.Racks) != s.Racks || len(c.hosts) != s.Hosts {
		return fmt.Errorf("dcn: snapshot shape %d racks/%d hosts does not match cluster %d/%d",
			s.Racks, s.Hosts, len(c.Racks), len(c.hosts))
	}
	if len(c.vms) != 0 {
		return fmt.Errorf("dcn: Restore requires an empty cluster, have %d VMs", len(c.vms))
	}
	// A repeated ID would leave its first copy resident on one host,
	// consuming capacity, while c.vms knows only the second.
	hostOf := make(map[int]int, len(s.VMs))
	for _, rec := range s.VMs {
		if first, dup := hostOf[rec.ID]; dup {
			return fmt.Errorf("dcn: snapshot lists VM %d twice, on host %d and on host %d", rec.ID, first, rec.HostID)
		}
		hostOf[rec.ID] = rec.HostID
	}
	// Install dependencies first so placement conflicts are enforced on
	// the way in.
	for _, edge := range s.Deps {
		c.Deps.AddDependency(edge[0], edge[1])
	}
	maxID := -1
	for _, rec := range s.VMs {
		h := c.Host(rec.HostID)
		if h == nil {
			return fmt.Errorf("dcn: snapshot VM %d references missing host %d", rec.ID, rec.HostID)
		}
		vm := &VM{
			ID: rec.ID, Name: rec.Name, Capacity: rec.Capacity, Value: rec.Value,
			DelaySensitive: rec.DelaySensitive, Alert: rec.Alert,
		}
		if err := c.place(vm, h); err != nil {
			return fmt.Errorf("dcn: restoring VM %d: %w", rec.ID, err)
		}
		c.vms[vm.ID] = vm
		if vm.ID > maxID {
			maxID = vm.ID
		}
	}
	c.nextVMID = maxID + 1
	return nil
}

// MarshalJSON serializes the snapshot (Snapshot already has JSON tags;
// this method exists on Cluster for one-call persistence).
func (c *Cluster) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}
