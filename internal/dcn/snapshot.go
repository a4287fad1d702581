package dcn

import (
	"encoding/json"
	"fmt"
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
	for _, vm := range c.VMs() {
		s.VMs = append(s.VMs, VMRecord{
			ID: vm.ID, Name: vm.Name, Capacity: vm.Capacity, Value: vm.Value,
			DelaySensitive: vm.DelaySensitive, Alert: vm.Alert, HostID: vm.Host().ID,
		})
	}
	// Ascending IDs over ascending peers: each edge once, from its lower
	// end, already in order.
	for id, peers := range c.Deps.peers {
		for _, peer := range peers {
			if peer > id {
				s.Deps = append(s.Deps, [2]int{id, peer})
			}
		}
	}
	return s
}

// Restore applies a snapshot to this cluster. The cluster must be empty
// and shaped identically (same rack and host counts). VM IDs are
// preserved so dependency edges and external references stay valid.
//
// IDs index tables here and in the runtime, and a snapshot is a file
// someone else may have written: before anything is allocated or placed,
// Restore refuses a VM ID that is negative or too sparse for the number of
// VMs listed, a VM listed twice, a negative capacity, a host that does not
// exist, and a dependency whose endpoint is not a VM the snapshot lists.
// VMs are placed in ascending ID order whatever order the file lists them
// in, so a cluster restored from its own snapshot repeats the placements
// that built it.
func (c *Cluster) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("dcn: restore from nil snapshot")
	}
	if len(c.Racks) != s.Racks || len(c.hosts) != s.Hosts {
		return fmt.Errorf("dcn: snapshot shape %d racks/%d hosts does not match cluster %d/%d",
			s.Racks, s.Hosts, len(c.Racks), len(c.hosts))
	}
	if c.numVMs != 0 {
		return fmt.Errorf("dcn: Restore requires an empty cluster, have %d VMs", c.numVMs)
	}
	bound := 4*len(s.VMs) + 1024
	size := 0
	for _, rec := range s.VMs {
		if rec.ID < 0 || rec.ID >= bound {
			return fmt.Errorf("dcn: snapshot VM id %d outside [0, %d) for %d VMs (ids index a dense table)", rec.ID, bound, len(s.VMs))
		}
		if !(rec.Capacity >= 0) { // a VM that frees room where it lands; also NaN
			return fmt.Errorf("dcn: snapshot VM %d has capacity %v", rec.ID, rec.Capacity)
		}
		if c.Host(rec.HostID) == nil {
			return fmt.Errorf("dcn: snapshot VM %d references missing host %d", rec.ID, rec.HostID)
		}
		size = max(size, rec.ID+1)
	}
	// recOf[id] is one more than the position of the VM's record. A repeated
	// ID would leave its first copy resident on one host, consuming capacity,
	// while the table knows only the second.
	recOf := make([]int32, size)
	for i, rec := range s.VMs {
		if first := recOf[rec.ID]; first != 0 {
			return fmt.Errorf("dcn: snapshot lists VM %d twice, on host %d and on host %d", rec.ID, s.VMs[first-1].HostID, rec.HostID)
		}
		recOf[rec.ID] = int32(i + 1)
	}
	for _, edge := range s.Deps {
		for _, id := range edge {
			if id < 0 || id >= size || recOf[id] == 0 {
				return fmt.Errorf("dcn: snapshot dependency %d–%d names VM %d, which the snapshot does not list", edge[0], edge[1], id)
			}
		}
	}
	c.placements++ // whatever the snapshot holds, results kept before it are void
	// Install dependencies first so placement conflicts are enforced on
	// the way in.
	for _, edge := range s.Deps {
		c.Deps.AddDependency(edge[0], edge[1])
	}
	c.vms = make([]*VM, size)
	for _, at := range recOf {
		if at == 0 {
			continue
		}
		rec := s.VMs[at-1]
		vm := &VM{
			ID: rec.ID, Name: rec.Name, Capacity: rec.Capacity, Value: rec.Value,
			DelaySensitive: rec.DelaySensitive, Alert: rec.Alert,
		}
		if err := c.place(vm, c.hosts[rec.HostID]); err != nil {
			return fmt.Errorf("dcn: restoring VM %d: %w", rec.ID, err)
		}
		c.vms[vm.ID] = vm
		c.numVMs++
	}
	return nil
}

// MarshalJSON serializes the snapshot (Snapshot already has JSON tags;
// this method exists on Cluster for one-call persistence).
func (c *Cluster) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}
