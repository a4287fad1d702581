package dcn

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzClusterRestore feeds arbitrary bytes to the cluster section of a
// snapshot: decode, then Restore onto a small empty cluster. Either that is
// an error, or the cluster holds every invariant and its own snapshot is a
// fixed point — written, read back and restored, it encodes to the same
// bytes. Never a panic, and never a table sized by a number in the file.
func FuzzClusterRestore(f *testing.F) {
	// A real snapshot, kept to a few VMs: the fuzzer minimizes every input
	// that reaches new code, and a long one stalls it for most of a short run.
	donor := testCluster(f, 4)
	for _, h := range []int{0, 0, 5, 17, 31} {
		if _, err := donor.AddVM(donor.Hosts()[h], 12.5, 3, h == 5); err != nil {
			f.Fatal(err)
		}
	}
	donor.Remove(donor.VM(1))
	donor.Deps.AddDependency(0, 2)
	donor.Deps.AddDependency(4, 2)
	real, err := json.Marshal(snapshotOf(f, donor))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	doc := func(vms VMColumns, deps [][2]int) []byte {
		b, err := json.Marshal(Snapshot{Racks: 8, Hosts: 32, VMs: vms, Deps: deps})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// One VM on two hosts.
	f.Add(doc(vmColumns(f, vmAt{3, 5, 0}, vmAt{4, 5, 1}, vmAt{3, 5, 2}), nil))
	// IDs nobody could index a table by.
	f.Add(doc(vmColumns(f, vmAt{1 << 40, 5, 0}, vmAt{-3, 5, 1}), nil))
	// A dependency on a VM the file does not list.
	f.Add(doc(vmColumns(f, vmAt{0, 5, 0}, vmAt{1, 5, 4}), [][2]int{{0, 1}, {1, 1 << 40}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		c := testCluster(t, 4)
		if c.Restore(&snap) != nil {
			return
		}
		if bound := 4*len(snap.VMs.ID) + 1024; len(c.vms) > bound || len(c.Deps.peers) > bound {
			t.Fatalf("%d VMs restored into tables of %d VMs and %d peer lists", len(snap.VMs.ID), len(c.vms), len(c.Deps.peers))
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("restored cluster: %v", err)
		}
		first, err := json.Marshal(snapshotOf(t, c))
		if err != nil {
			t.Fatal(err)
		}
		var again Snapshot
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("the cluster's own snapshot does not decode: %v", err)
		}
		c2 := testCluster(t, 4)
		if err := c2.Restore(&again); err != nil {
			t.Fatalf("the cluster's own snapshot does not restore: %v", err)
		}
		second, err := json.Marshal(snapshotOf(t, c2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("snapshot is not a fixed point:\n%s\n%s", first, second)
		}
	})
}
