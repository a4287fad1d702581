package ingest

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sheriff/internal/alloctest"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
	"sheriff/internal/traces"
)

// liveSnapshot drives a service in the given mode through updates that
// alert some VMs and not others, and returns its snapshot.
func liveSnapshot(t testing.TB, mode TriageMode) *Snapshot {
	t.Helper()
	s, err := New([][]int{{0, 1, 2}, {3, 4}, {}}, Options{Mode: mode, Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		s.Offer(Update{VM: rng.Intn(5), Profile: traces.Profile{CPU: rng.Float64(), Mem: rng.Float64()}})
	}
	s.ProcessPending()
	s.Poll()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRestoreRefusesUnequalColumns: a shard's VM, seen and alerted columns
// hold one entry per VM, and the state column of the snapshot's mode two;
// the other mode's column is empty. Anything else is refused by name,
// before any slot is written.
func TestRestoreRefusesUnequalColumns(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode TriageMode
		cut  func(*ShardSnap)
	}{
		{"short seen", TriageFloat, func(ss *ShardSnap) { ss.Seen = ss.Seen[:1] }},
		{"long alerted", TriageFloat, func(ss *ShardSnap) { ss.Alerted = append(ss.Alerted, true) }},
		{"one holt value per VM", TriageFloat, func(ss *ShardSnap) { ss.Holt = ss.Holt[:8*len(ss.VM)] }},
		{"words in a float snapshot", TriageFloat, func(ss *ShardSnap) { ss.Words = make([]int32, 2*len(ss.VM)) }},
		{"short words", TriageQuant, func(ss *ShardSnap) { ss.Words = ss.Words[1:] }},
		{"holt in a quantized snapshot", TriageQuant, func(ss *ShardSnap) { ss.Holt = liveSnapshot(t, TriageFloat).Shards[0].Holt }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := liveSnapshot(t, tc.mode)
			tc.cut(&snap.Shards[0])
			s := build(t, Options{Mode: tc.mode})
			err := s.Restore(snap)
			if err == nil || !strings.Contains(err.Error(), "rack 0: columns of unequal length") {
				t.Fatalf("err = %v, want a refusal naming rack 0's columns of unequal length", err)
			}
			if st := s.Stats(); st.Processed != 0 || st.Offered != 0 {
				t.Fatalf("refused restore resumed the counters: %+v", st)
			}
		})
	}
}

// FuzzIngestRestore: arbitrary bytes are either refused — by the decoder
// or by FromSnapshot — or restore, in either triage mode, into a service
// whose own snapshot, encoded, restored and encoded again, is the same
// bytes. Never a panic.
func FuzzIngestRestore(f *testing.F) {
	seed := func(snap *Snapshot) {
		doc, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	seed(liveSnapshot(f, TriageFloat))
	seed(liveSnapshot(f, TriageQuant))
	unequal := liveSnapshot(f, TriageQuant)
	unequal.Shards[1].Seen = unequal.Shards[1].Seen[1:]
	seed(unequal)
	unknown := liveSnapshot(f, TriageFloat)
	unknown.Mode = "analog"
	seed(unknown)
	stray := liveSnapshot(f, TriageFloat)
	stray.Shards[0].Words = make([]int32, 2*len(stray.Shards[0].VM))
	seed(stray)

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		for _, mode := range []TriageMode{TriageFloat, TriageQuant} {
			s, err := FromSnapshot(&snap, Options{Mode: mode})
			if err != nil {
				continue
			}
			first := encodeService(t, s)
			var again Snapshot
			if err := json.Unmarshal(first, &again); err != nil {
				t.Fatalf("%v: own snapshot does not decode: %v", mode, err)
			}
			s2, err := FromSnapshot(&again, Options{Mode: mode})
			if err != nil {
				t.Fatalf("%v: own snapshot refused: %v", mode, err)
			}
			if second := encodeService(t, s2); !bytes.Equal(first, second) {
				t.Fatalf("%v: snapshot is not stable across a restore:\n%s\n%s", mode, first, second)
			}
		}
	})
}

// encodeService is the service's snapshot, encoded.
func encodeService(t *testing.T, s *Service) []byte {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSnapshotAllocsFlatInRacks: Snapshot carves every shard's columns
// from one array per element kind, so it allocates as many objects on a
// BCube-8 (64 racks) as on a BCube-4 (16), at most five, in either triage
// mode; and the document it returns is a value: a later drain does not
// reach it.
func TestSnapshotAllocsFlatInRacks(t *testing.T) {
	for _, mode := range []TriageMode{TriageFloat, TriageQuant} {
		for _, size := range []int{4, 8} {
			bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: size})
			if err != nil {
				t.Fatal(err)
			}
			c, err := dcn.NewCluster(bc.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
			if err != nil {
				t.Fatal(err)
			}
			c.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, Seed: 1})
			s, err := FromCluster(c, Options{Mode: mode, Clock: fixedClock()})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(size)))
			updates := make([]Update, 0, len(c.VMs()))
			for _, vm := range c.VMs() {
				updates = append(updates, Update{VM: vm.ID, Profile: traces.Profile{CPU: rng.Float64(), Mem: rng.Float64()}})
			}
			if _, err := s.OfferBatch(updates); err != nil {
				t.Fatal(err)
			}
			s.ProcessPending()
			s.Poll()
			held, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			before, err := json.Marshal(held)
			if err != nil {
				t.Fatal(err)
			}
			alloctest.Count(t, mode.String()+"-bcube"+strconv.Itoa(size), func() {
				if _, err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			})

			if _, err := s.OfferBatch(updates); err != nil {
				t.Fatal(err)
			}
			s.ProcessPending()
			s.Poll()
			if after, err := json.Marshal(held); err != nil || !bytes.Equal(before, after) {
				t.Fatalf("%v, BCube-%d: a held snapshot changed when the service drained again (err %v)", mode, size, err)
			}
		}
	}
}
