package sim

import (
	"sync"
	"testing"

	"sheriff/internal/alloctest"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
)

// TestEpisodeSetupAllocs: building and filling a Fat-Tree 16 episode
// (benchChaos: 320 nodes, 128 racks, 512 hosts, 3,267 VMs at seed 1) makes
// a bounded number of allocations — not one or more per node, link, host,
// VM or shim. The fabric is a clone of the shape's template; the cluster,
// the VMs, the resident lists and the shims are each carved from a few
// arrays; the shims' regions are read from the template's and the cost
// model reads the rows Build prepared for the shape, so what is left is a
// chunk per doubling. The byte count fails if an episode sweeps its own
// rows again (about 0.8 MB of table, weights and search state), carves
// every host's resident list at roomFor (about 0.5 MB), or builds its
// fabric from nothing. The episode before the windows makes the shape the
// last built, so that the windows' warm-up builds the template and every
// counted episode is stamped from it.
func TestEpisodeSetupAllocs(t *testing.T) {
	var vms int
	episode := func() {
		s, _ := benchChaos(t, 1)
		vms = len(s.Cluster.VMs())
	}
	episode()
	alloctest.Count(t, "setup", episode)
	alloctest.Count(t, "setup-bytes", episode)
	t.Logf("episode set-up: %d VMs", vms)
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
		_, rep, err := s.BalancingRound(0.05)
		if err != nil {
			return "", err
		}
		key := placementKey(s.Cluster) + tallyKey(&rep)
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
