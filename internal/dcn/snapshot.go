package dcn

import (
	"fmt"

	"sheriff/internal/timeseries"
)

// Snapshot is a serializable record of a cluster's logical state: VM
// placements and the dependency graph. The topology itself is not
// serialized — a snapshot is applied to a freshly built cluster with the
// same shape (checked by rack/host counts), which keeps experiment
// checkpoints small and topology construction in code.
type Snapshot struct {
	Racks int       `json:"racks"`
	Hosts int       `json:"hosts"`
	VMs   VMColumns `json:"vms"`
	Deps  [][2]int  `json:"deps"`
}

// VMColumns is the cluster's VMs as columns: entry i of every column is
// one VM, in ascending ID order. IDs, hosts and names stay decimal and text,
// so a file can still be searched for a VM; the attribute floats are
// timeseries.Bits, exact and without the shortest-decimal formatting that
// was most of the cost of writing them. Alert 0 is no alert.
type VMColumns struct {
	ID             []int           `json:"id"`
	Host           []int           `json:"host"`
	Name           []string        `json:"name"`
	DelaySensitive []bool          `json:"delay_sensitive"`
	Capacity       timeseries.Bits `json:"capacity"`
	Value          timeseries.Bits `json:"value"`
	Alert          timeseries.Bits `json:"alert"`
}

// Snapshot captures the cluster's current VM placements and dependencies.
// It fails when a VM's capacity, value or alert is NaN or ±Inf, which no
// snapshot can carry, naming the VM. The result is a value that shares
// nothing with the cluster: its columns are carved from one fresh array per
// element kind (the IDs and hosts, the names, the flags, the packed
// attributes), so beside them it allocates the snapshot and the dependency
// list alone, six objects however many VMs and edges there are.
func (c *Cluster) Snapshot() (*Snapshot, error) {
	n := c.numVMs
	ints, names, flags := make([]int, 2*n), make([]string, n), make([]bool, n)
	bits := make(timeseries.Bits, 3*8*n)
	cols := VMColumns{ID: timeseries.Carve(&ints, n), Host: ints, Name: names, DelaySensitive: flags}
	var attrs [3]timeseries.Bits // capacity, value, alert, filled in place
	for i := range attrs {
		attrs[i] = timeseries.Carve(&bits, 8*n)[:0]
	}
	i := 0
	for _, vm := range c.vms { // the dense table: ascending IDs
		if vm == nil {
			continue
		}
		cols.ID[i], cols.Host[i], cols.Name[i], cols.DelaySensitive[i] = vm.ID, vm.Host().ID, vm.Name, vm.DelaySensitive
		for k, x := range [3]float64{vm.Capacity, vm.Value, vm.Alert} {
			var err error
			if attrs[k], err = timeseries.AppendPack(attrs[k], x); err != nil {
				return nil, fmt.Errorf("dcn: snapshot VM %d %s: %w", vm.ID, vmFloatColumns[k], err)
			}
		}
		i++
	}
	cols.Capacity, cols.Value, cols.Alert = attrs[0], attrs[1], attrs[2]
	s := &Snapshot{Racks: len(c.Racks), Hosts: len(c.hosts), VMs: cols}
	if n := c.Deps.NumEdges(); n > 0 {
		s.Deps = make([][2]int, 0, n)
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
	return s, nil
}

// vmFloatColumns names VMColumns' Bits columns, in the order Snapshot and
// Restore take them.
var vmFloatColumns = [3]string{"capacity", "value", "alert"}

// floats unpacks the float columns, index by vmFloatColumns. It fails on
// one that is not well-formed Bits and on columns of unequal length.
func (cols *VMColumns) floats() ([3][]float64, error) {
	var fs [3][]float64
	for i, col := range []timeseries.Bits{cols.Capacity, cols.Value, cols.Alert} {
		var err error
		if fs[i], err = col.Floats(); err != nil {
			return fs, fmt.Errorf("dcn: snapshot VM %s: %w", vmFloatColumns[i], err)
		}
	}
	n := len(cols.ID)
	if len(cols.Host) != n || len(cols.Name) != n || len(cols.DelaySensitive) != n ||
		len(fs[0]) != n || len(fs[1]) != n || len(fs[2]) != n {
		return fs, fmt.Errorf("dcn: snapshot VM columns of unequal length: %d ids, %d hosts, %d names, %d delay_sensitive, %d capacities, %d values, %d alerts",
			n, len(cols.Host), len(cols.Name), len(cols.DelaySensitive), len(fs[0]), len(fs[1]), len(fs[2]))
	}
	return fs, nil
}

// Restore applies a snapshot to this cluster. The cluster must be empty
// and shaped identically (same rack and host counts). VM IDs are
// preserved so dependency edges and external references stay valid.
//
// IDs index tables here and in the runtime, and a snapshot is a file
// someone else may have written: before anything is allocated or placed,
// Restore refuses VM columns of unequal length, a VM ID that is negative or too sparse for the number of
// VMs listed, a VM listed twice, a negative capacity, a host that does not
// exist, and a dependency whose endpoint is not a VM the snapshot lists.
// VMs are placed in ascending ID order whatever order the file lists them
// in, so a cluster restored from its own snapshot repeats the placements
// that built it. The VMs are made in one array of the snapshot's size and
// the hosts' resident lists in another, each list at the count its host
// holds, so beyond the dependency edges
// (each added as AddDependency adds it) Restore allocates the same few
// objects however many VMs it places.
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
	cols := &s.VMs
	fs, err := cols.floats()
	if err != nil {
		return err
	}
	capacity, value, alertVal := fs[0], fs[1], fs[2]
	bound := 4*len(cols.ID) + 1024
	size := 0
	for i, id := range cols.ID {
		if id < 0 || id >= bound {
			return fmt.Errorf("dcn: snapshot VM id %d outside [0, %d) for %d VMs (ids index a dense table)", id, bound, len(cols.ID))
		}
		if !(capacity[i] >= 0) { // a VM that frees room where it lands
			return fmt.Errorf("dcn: snapshot VM %d has capacity %v", id, capacity[i])
		}
		if c.Host(cols.Host[i]) == nil {
			return fmt.Errorf("dcn: snapshot VM %d references missing host %d", id, cols.Host[i])
		}
		size = max(size, id+1)
	}
	// recOf[id] is one more than the VM's position in the columns. A
	// repeated ID would leave its first copy resident on one host, consuming
	// capacity, while the table knows only the second. held[h] counts the
	// VMs host h is given; it shares recOf's array.
	recOf := make([]int32, size+len(c.hosts))
	recOf, held := recOf[:size:size], recOf[size:]
	for i, id := range cols.ID {
		if first := recOf[id]; first != 0 {
			return fmt.Errorf("dcn: snapshot lists VM %d twice, on host %d and on host %d", id, cols.Host[first-1], cols.Host[i])
		}
		recOf[id] = int32(i + 1)
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
	vms := make([]VM, len(cols.ID))
	// Every host's resident list is carved once, at the count it is given,
	// from one chunk; a move onto a full host grows its list (place).
	for _, h := range cols.Host {
		held[h]++
	}
	c.residents = make([]*VM, 0, len(cols.ID))
	for i, h := range c.hosts {
		if held[i] > 0 {
			h.vms = carve(&c.residents, int(held[i]))[:0]
		}
	}
	for _, at := range recOf {
		if at == 0 {
			continue
		}
		i := at - 1
		vm := &vms[i]
		*vm = VM{
			ID: cols.ID[i], Name: cols.Name[i], Capacity: capacity[i], Value: value[i],
			DelaySensitive: cols.DelaySensitive[i], Alert: alertVal[i],
		}
		if err := c.place(vm, c.hosts[cols.Host[i]]); err != nil {
			return fmt.Errorf("dcn: restoring VM %d: %w", vm.ID, err)
		}
		c.vms[vm.ID] = vm
		c.numVMs++
	}
	return nil
}
