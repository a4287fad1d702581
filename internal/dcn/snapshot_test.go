package dcn

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"sheriff/internal/timeseries"
)

// snapshotOf is Cluster.Snapshot for a cluster the test knows is finite.
func snapshotOf(tb testing.TB, c *Cluster) *Snapshot {
	tb.Helper()
	s, err := c.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// vmAt is a VM a test writes into a snapshot by hand: an ID, a capacity
// and a host, the rest zero.
type vmAt struct {
	id       int
	capacity float64
	host     int
}

// vmColumns spells vms as a snapshot's columns.
func vmColumns(tb testing.TB, vms ...vmAt) VMColumns {
	tb.Helper()
	n := len(vms)
	cols := VMColumns{ID: make([]int, n), Host: make([]int, n), Name: make([]string, n), DelaySensitive: make([]bool, n)}
	capacity := make([]float64, n)
	for i, vm := range vms {
		cols.ID[i], cols.Host[i], capacity[i] = vm.id, vm.host, vm.capacity
	}
	var err error
	if cols.Capacity, err = timeseries.Pack(capacity); err != nil {
		tb.Fatal(err)
	}
	zeros, _ := timeseries.Pack(make([]float64, n))
	cols.Value, cols.Alert = zeros, zeros
	return cols
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c1 := testCluster(t, 4)
	c1.Populate(PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20,
		DependencyProb: 0.5, CrossRackDependencyProb: 0.3, Seed: 31})
	snap := snapshotOf(t, c1)

	c2 := testCluster(t, 4)
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(c2.VMs()) != len(c1.VMs()) {
		t.Fatalf("VM count %d, want %d", len(c2.VMs()), len(c1.VMs()))
	}
	if c2.Deps.NumEdges() != c1.Deps.NumEdges() {
		t.Fatalf("dep edges %d, want %d", c2.Deps.NumEdges(), c1.Deps.NumEdges())
	}
	for _, vm := range c1.VMs() {
		restored := c2.VM(vm.ID)
		if restored == nil {
			t.Fatalf("VM %d missing after restore", vm.ID)
		}
		if restored.Host().ID != vm.Host().ID {
			t.Fatalf("VM %d on host %d, want %d", vm.ID, restored.Host().ID, vm.Host().ID)
		}
		if restored.Capacity != vm.Capacity || restored.Value != vm.Value {
			t.Fatalf("VM %d attributes changed", vm.ID)
		}
	}
	if c1.WorkloadStdDev() != c2.WorkloadStdDev() {
		t.Fatal("workload distribution changed")
	}
	// New VM IDs continue past the snapshot.
	vm, err := c2.AddVM(c2.Hosts()[0], 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if c1.VM(vm.ID) != nil {
		t.Fatalf("new VM reused ID %d", vm.ID)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	c1 := testCluster(t, 4)
	c1.Populate(PopulateOptions{VMsPerHost: 2, MinCapacity: 5, MaxCapacity: 15, Seed: 32})
	blob, err := json.Marshal(snapshotOf(t, c1))
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	c2 := testCluster(t, 4)
	if err := c2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if len(c2.VMs()) != len(c1.VMs()) {
		t.Fatal("JSON round trip lost VMs")
	}
}

func TestRestoreShapeMismatch(t *testing.T) {
	c1 := testCluster(t, 4)
	snap := snapshotOf(t, c1)
	c2 := testCluster(t, 8)
	if err := c2.Restore(snap); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestRestoreRequiresEmptyCluster(t *testing.T) {
	c1 := testCluster(t, 4)
	snap := snapshotOf(t, c1)
	c2 := testCluster(t, 4)
	if _, err := c2.AddVM(c2.Hosts()[0], 5, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := c2.Restore(snap); err == nil {
		t.Fatal("non-empty cluster accepted")
	}
}

func TestRestoreRejectsBadHost(t *testing.T) {
	c := testCluster(t, 4)
	snap := &Snapshot{Racks: len(c.Racks), Hosts: len(c.Hosts()),
		VMs: vmColumns(t, vmAt{0, 5, 9999})}
	if err := c.Restore(snap); err == nil {
		t.Fatal("bad host reference accepted")
	}
}

// TestRestoreRejectsRepeatedVM: one ID on two hosts would leave the first
// copy resident, and counted against its host, with c.vms holding only the
// second. The refusal comes before anything is placed.
func TestRestoreRejectsRepeatedVM(t *testing.T) {
	c := testCluster(t, 4)
	snap := &Snapshot{Racks: len(c.Racks), Hosts: len(c.Hosts()),
		VMs: vmColumns(t, vmAt{3, 5, 0}, vmAt{4, 5, 1}, vmAt{3, 5, 2})}
	err := c.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "VM 3 twice, on host 0 and on host 2") {
		t.Fatalf("err = %v, want one naming VM 3 and hosts 0 and 2", err)
	}
	if n := len(c.VMs()); n != 0 {
		t.Fatalf("refused restore left %d VMs in the cluster", n)
	}
	for _, h := range c.Hosts() {
		if h.Used() != 0 {
			t.Fatalf("refused restore left host %d with %v used", h.ID, h.Used())
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	c := testCluster(t, 4)
	c.Populate(PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20,
		DependencyProb: 0.5, Seed: 33})
	b1, err := json.Marshal(snapshotOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(snapshotOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("snapshot serialization not deterministic")
	}
}

// TestRestoreRejectsHostileIDs: VM IDs index tables, here and in the
// runtime, and a snapshot is a file. An ID that is negative or too sparse
// for the number of VMs listed, and a dependency on a VM the snapshot does
// not list, are refused by name before anything is allocated or placed.
func TestRestoreRejectsHostileIDs(t *testing.T) {
	two := []vmAt{{0, 5, 0}, {5, 5, 1}}
	for _, tc := range []struct {
		name string
		vms  []vmAt
		deps [][2]int
		want string // "" = accepted
	}{
		{"wild id", []vmAt{{1 << 40, 5, 0}}, nil, "VM id 1099511627776 outside [0, 1028) for 1 VMs"},
		{"negative id", []vmAt{{-3, 5, 0}}, nil, "VM id -3 outside"},
		{"first id past the bound", []vmAt{{1028, 5, 0}}, nil, "VM id 1028 outside [0, 1028)"},
		{"last id inside the bound", []vmAt{{1027, 5, 0}}, nil, ""},
		{"edge between listed VMs", two, [][2]int{{5, 0}}, ""},
		{"edge to a hole", two, [][2]int{{0, 3}}, "dependency 0–3 names VM 3, which the snapshot does not list"},
		{"edge past the table", two, [][2]int{{0, 6}}, "dependency 0–6 names VM 6"},
		{"edge to a wild id", two, [][2]int{{1 << 40, 5}}, "dependency 1099511627776–5 names VM 1099511627776"},
		{"edge to a negative id", two, [][2]int{{5, -1}}, "dependency 5–-1 names VM -1"},
	} {
		c := testCluster(t, 4)
		err := c.Restore(&Snapshot{Racks: len(c.Racks), Hosts: len(c.Hosts()), VMs: vmColumns(t, tc.vms...), Deps: tc.deps})
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Restore = %v, want it accepted", tc.name, err)
			} else if err := c.CheckInvariants(); err != nil {
				t.Errorf("%s: restored cluster: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want a refusal saying %q", tc.name, err, tc.want)
		}
		if len(c.VMs()) != 0 || c.Deps.NumEdges() != 0 || len(c.vms) != 0 {
			t.Errorf("%s: refused restore left %d VMs, %d edges and a table of %d behind",
				tc.name, len(c.VMs()), c.Deps.NumEdges(), len(c.vms))
		}
	}
}

// TestRestorePlacesInIDOrder: the order a file lists its VMs in is not
// state. Two files that differ only in it restore to the same cluster, by
// the same placements in the same order.
func TestRestorePlacesInIDOrder(t *testing.T) {
	donor := testCluster(t, 4)
	donor.Populate(PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 30,
		DependencyProb: 0.5, CrossRackDependencyProb: 0.3, Seed: 34})
	snap := snapshotOf(t, donor)
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	cols := &snap.VMs
	slices.Reverse(cols.ID)
	slices.Reverse(cols.Host)
	slices.Reverse(cols.Name)
	slices.Reverse(cols.DelaySensitive)
	for _, col := range []*timeseries.Bits{&cols.Capacity, &cols.Value, &cols.Alert} {
		v, err := col.Floats()
		if err != nil {
			t.Fatal(err)
		}
		slices.Reverse(v)
		if *col, err = timeseries.Pack(v); err != nil {
			t.Fatal(err)
		}
	}
	c := testCluster(t, 4)
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(snapshotOf(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("a snapshot listing its VMs backwards restored to a different cluster")
	}
}

// TestRestoreRefusesUnequalColumns: every VM column holds one entry per
// VM. A column that is short or long is refused by name, before anything
// is placed.
func TestRestoreRefusesUnequalColumns(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(*VMColumns)
	}{
		{"short hosts", func(c *VMColumns) { c.Host = c.Host[:1] }},
		{"long names", func(c *VMColumns) { c.Name = append(c.Name, "extra") }},
		{"short delay_sensitive", func(c *VMColumns) { c.DelaySensitive = nil }},
		{"short capacities", func(c *VMColumns) { c.Capacity = c.Capacity[:8] }},
		{"long alerts", func(c *VMColumns) { c.Alert = append(c.Alert, c.Alert[:8]...) }},
	} {
		c := testCluster(t, 4)
		snap := &Snapshot{Racks: len(c.Racks), Hosts: len(c.Hosts()), VMs: vmColumns(t, vmAt{0, 5, 0}, vmAt{1, 5, 1})}
		tc.cut(&snap.VMs)
		err := c.Restore(snap)
		if err == nil || !strings.Contains(err.Error(), "columns of unequal length") {
			t.Errorf("%s: Restore = %v, want a refusal naming columns of unequal length", tc.name, err)
		}
		if len(c.VMs()) != 0 {
			t.Errorf("%s: refused restore left %d VMs behind", tc.name, len(c.VMs()))
		}
	}
}
