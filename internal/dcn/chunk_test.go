package dcn

import (
	"strconv"
	"testing"
)

// TestVMChunksKeepIDsNamesAndHosts: VMs carved across chunk boundaries keep
// their IDs, names, hosts and pointers, a VM AddVM could not place takes no
// ID, and a VM added after a removal takes the next ID, not the removed one.
func TestVMChunksKeepIDsNamesAndHosts(t *testing.T) {
	c := testCluster(t, 8) // 128 hosts of 100
	hosts := c.Hosts()
	var vms []*VM
	var at []*Host
	add := func(h *Host) {
		t.Helper()
		vm, err := c.AddVM(h, 1, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		vms, at = append(vms, vm), append(at, h)
	}
	// Past two chunk boundaries (64 and 128), with a refused VM at the first.
	for i := 0; i < 3*minVMChunk; i++ {
		if i == minVMChunk {
			if _, err := c.AddVM(hosts[0], 1000, 1, false); err == nil {
				t.Fatal("a VM larger than any host was placed")
			}
		}
		add(hosts[i%len(hosts)])
	}
	c.Remove(vms[minVMChunk-1])
	c.Remove(vms[2*minVMChunk])
	add(hosts[5])
	removed := map[int]bool{minVMChunk - 1: true, 2 * minVMChunk: true}
	for i, vm := range vms {
		if vm.ID != i || vm.Name != "vm-"+strconv.Itoa(i) {
			t.Fatalf("VM %d is ID %d named %q", i, vm.ID, vm.Name)
		}
		if removed[i] {
			if vm.Host() != nil || c.VM(i) != nil {
				t.Fatalf("removed VM %d is still on host %v or in the cluster", i, vm.Host())
			}
			continue
		}
		if c.VM(i) != vm || vm.Host() != at[i] {
			t.Fatalf("VM %d: cluster has %p, host %v; want %p on host %d", i, c.VM(i), vm.Host(), vm, at[i].ID)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAllocsFlatInVMs: Restore makes the same objects for a fleet of
// 32 VMs and one of 512 — the VMs in one array, the hosts' resident lists in
// another. (The snapshots carry no dependencies: each edge is added as
// AddDependency adds it.)
func TestRestoreAllocsFlatInVMs(t *testing.T) {
	var allocs [2]float64
	for i, perHost := range []int{1, 16} {
		src := testCluster(t, 4)
		src.Populate(PopulateOptions{VMsPerHost: perHost, MinCapacity: 1, MaxCapacity: 5, Seed: 3})
		snap := snapshotOf(t, src)
		if got, want := len(snap.VMs.ID), 32*perHost; got != want {
			t.Fatalf("populated %d VMs, want %d", got, want)
		}
		allocs[i] = testing.AllocsPerRun(5, func() {
			c := testCluster(t, 4)
			if err := c.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}) - testing.AllocsPerRun(5, func() { testCluster(t, 4) })
	}
	t.Logf("Restore of 32 and 512 VMs: %v allocations", allocs)
	if allocs[0] != allocs[1] {
		t.Errorf("Restore makes %v allocations for 32 VMs and %v for 512, want the same", allocs[0], allocs[1])
	}
}
