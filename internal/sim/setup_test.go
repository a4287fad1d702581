package sim

import (
	"sync"
	"testing"

	"sheriff/internal/faults"
	"sheriff/internal/migrate"
)

// episodeSetupAllocs bounds the allocations of one episode's set-up. The
// fabric, the cluster, the VMs, the resident lists and the shims are each
// carved from a few arrays, so what is left is mostly the cost model's
// rows and a chunk per doubling.
const episodeSetupAllocs = 1000

// TestEpisodeSetupAllocs: building and filling a Fat-Tree 16 episode
// (benchChaos: 320 nodes, 128 racks, 512 hosts, 3,267 VMs at seed 1) makes
// at most episodeSetupAllocs allocations — not one or more per node, link,
// host, VM or shim.
func TestEpisodeSetupAllocs(t *testing.T) {
	var vms int
	allocs := testing.AllocsPerRun(3, func() {
		s, _ := benchChaos(t, 1)
		vms = len(s.Cluster.VMs())
	})
	t.Logf("episode set-up: %.0f allocations, %d VMs", allocs, vms)
	if allocs > episodeSetupAllocs {
		t.Errorf("episode set-up makes %.0f allocations, want at most %d", allocs, episodeSetupAllocs)
	}
}

// BenchmarkBuildEpisode is one ft16-dist-chaos episode's set-up per op:
// Build and PopulateHotPods on Fat-Tree 16.
func BenchmarkBuildEpisode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchChaos(b, 1)
	}
}

// TestBuildConcurrent: episodes built, filled and run on several goroutines
// at once share no memory (run it with -race) and decide what one built
// alone decides.
func TestBuildConcurrent(t *testing.T) {
	episode := func() (string, error) {
		s, err := Build(Config{Kind: FatTree, Size: 8, Seed: 4})
		if err != nil {
			return "", err
		}
		s.PopulateHotPods(0.5, 0.85, 0.35)
		_, reports, err := s.BalancingRound(0.05)
		if err != nil {
			return "", err
		}
		key := placementKey(s.Cluster)
		for _, rep := range reports {
			key += tallyKey(rep)
		}
		res, err := s.RunChaos(faults.Plan{Seed: 4, Drop: 0.2, DupRate: 0.1}, migrate.DistOptions{Seed: 4})
		if err != nil {
			return "", err
		}
		return key + tallyKey(&res.Tally) + placementKey(s.Cluster), nil
	}
	want, err := episode()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = episode(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, key := range got {
		if key != want {
			t.Errorf("episode %d, built beside three others, decided otherwise than one built alone", i)
		}
	}
}
