package dcn

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c1 := testCluster(t, 4)
	c1.Populate(PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20,
		DependencyProb: 0.5, CrossRackDependencyProb: 0.3, Seed: 31})
	snap := c1.Snapshot()

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
	blob, err := json.Marshal(c1)
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
	snap := c1.Snapshot()
	c2 := testCluster(t, 8)
	if err := c2.Restore(snap); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestRestoreRequiresEmptyCluster(t *testing.T) {
	c1 := testCluster(t, 4)
	snap := c1.Snapshot()
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
		VMs: []VMRecord{{ID: 0, Capacity: 5, HostID: 9999}}}
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
		VMs: []VMRecord{{ID: 3, Capacity: 5, HostID: 0}, {ID: 4, Capacity: 5, HostID: 1}, {ID: 3, Capacity: 5, HostID: 2}}}
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
	b1, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(c.Snapshot())
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
	two := []VMRecord{{ID: 0, Capacity: 5, HostID: 0}, {ID: 5, Capacity: 5, HostID: 1}}
	for _, tc := range []struct {
		name string
		vms  []VMRecord
		deps [][2]int
		want string // "" = accepted
	}{
		{"wild id", []VMRecord{{ID: 1 << 40, Capacity: 5, HostID: 0}}, nil, "VM id 1099511627776 outside [0, 1028) for 1 VMs"},
		{"negative id", []VMRecord{{ID: -3, Capacity: 5, HostID: 0}}, nil, "VM id -3 outside"},
		{"first id past the bound", []VMRecord{{ID: 1028, Capacity: 5, HostID: 0}}, nil, "VM id 1028 outside [0, 1028)"},
		{"last id inside the bound", []VMRecord{{ID: 1027, Capacity: 5, HostID: 0}}, nil, ""},
		{"edge between listed VMs", two, [][2]int{{5, 0}}, ""},
		{"edge to a hole", two, [][2]int{{0, 3}}, "dependency 0–3 names VM 3, which the snapshot does not list"},
		{"edge past the table", two, [][2]int{{0, 6}}, "dependency 0–6 names VM 6"},
		{"edge to a wild id", two, [][2]int{{1 << 40, 5}}, "dependency 1099511627776–5 names VM 1099511627776"},
		{"edge to a negative id", two, [][2]int{{5, -1}}, "dependency 5–-1 names VM -1"},
	} {
		c := testCluster(t, 4)
		err := c.Restore(&Snapshot{Racks: len(c.Racks), Hosts: len(c.Hosts()), VMs: tc.vms, Deps: tc.deps})
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
	snap := donor.Snapshot()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(snap.VMs)-1; i < j; i, j = i+1, j-1 {
		snap.VMs[i], snap.VMs[j] = snap.VMs[j], snap.VMs[i]
	}
	c := testCluster(t, 4)
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("a snapshot listing its VMs backwards restored to a different cluster")
	}
}
