package cost

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sheriff/internal/alloctest"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// Demand-driven refresh: a model driven by RefreshSources (some rows swept
// ahead, the rest on their first query) must answer every query with the
// bits a twin driven by full Refresh() returns.

// twin is one of two identical clusters that receive identical mutations.
type twin struct {
	c   *dcn.Cluster
	m   *Model
	vms []*dcn.VM
}

func newTwin(t *testing.T, deferred bool) *twin {
	t.Helper()
	return newTwinOn(t, testCluster(t), PaperParams(), deferred)
}

// newTwinOn is newTwin on a given cluster and model constants.
func newTwinOn(t *testing.T, c *dcn.Cluster, p Params, deferred bool) *twin {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	tw := &twin{c: c}
	for _, h := range c.Hosts() {
		vm, err := c.AddVM(h, 5+20*rng.Float64(), 1, false)
		if err != nil {
			t.Fatal(err)
		}
		tw.vms = append(tw.vms, vm)
	}
	for i := 0; i < len(tw.vms); i++ { // dependency term: some cross-rack peers
		c.Deps.AddDependency(tw.vms[i].ID, tw.vms[rng.Intn(len(tw.vms))].ID)
	}
	var err error
	if deferred {
		tw.m, err = NewDeferred(c, p)
	} else {
		tw.m, err = New(c, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// patch degrades the same random links on every twin's graph.
func patch(rng *rand.Rand, count int, twins ...*twin) {
	for i := 0; i < count; i++ {
		id := rng.Intn(twins[0].c.Graph.NumEdges())
		bw := float64(rng.Intn(5)) / 4
		for _, tw := range twins {
			tw.c.Graph.SetBandwidthAt(id, bw*tw.c.Graph.EdgeAt(id).Capacity)
		}
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) || (math.IsNaN(a) && math.IsNaN(b))
}

// assertQueriesAgree compares every query kind between the twins for the
// rack pair (i, j) and VM k → a host of rack j.
func assertQueriesAgree(t *testing.T, full, lazy *twin, i, j, k int, label string) {
	t.Helper()
	fa, fb := full.c.Racks[i], full.c.Racks[j]
	la, lb := lazy.c.Racks[i], lazy.c.Racks[j]
	if f, l := full.m.RackPairCost(fa, fb), lazy.m.RackPairCost(la, lb); !sameFloat(f, l) {
		t.Fatalf("%s: RackPairCost(%d,%d) = %v, full refresh %v", label, i, j, l, f)
	}
	ft, fe := full.m.TransmissionCost(fa, fb, 17)
	lt, le := lazy.m.TransmissionCost(la, lb, 17)
	if (fe == nil) != (le == nil) || ft != lt {
		t.Fatalf("%s: TransmissionCost(%d,%d) = %v/%v, full refresh %v/%v", label, i, j, lt, le, ft, fe)
	}
	fm, fe := full.m.Migration(full.vms[k], fb.Hosts[0])
	lm, le := lazy.m.Migration(lazy.vms[k], lb.Hosts[0])
	if (fe == nil) != (le == nil) || fm != lm {
		t.Fatalf("%s: Migration(vm %d → rack %d) = %v/%v, full refresh %v/%v", label, k, j, lm, le, fm, fe)
	}
}

// distanceTruth sweeps Σ D(e) between every pair of the cluster's racks in
// one fresh table: the eager values the model's lazy table must return.
func distanceTruth(c *dcn.Cluster) func(a, b *dcn.Rack) float64 {
	ms := topology.DijkstraFrom(c.Graph, c.Graph.RackNodes(), topology.DistanceCost)
	return func(a, b *dcn.Rack) float64 { return ms.Dist(a.NodeID, b.NodeID) }
}

// wantDependencyCost is DependencyCost summed from the eager distances.
func wantDependencyCost(c *dcn.Cluster, truth func(a, b *dcn.Rack) float64, vm *dcn.VM, src, dst *dcn.Rack) float64 {
	if src == dst {
		return 0
	}
	total := 0.0
	for _, idx := range c.Deps.PeerRacks(c, vm.ID, nil) {
		peer := c.Racks[idx]
		total += truth(dst, peer) - truth(src, peer)
	}
	return PaperParams().Cd * total
}

// assertDistancesAgree compares Distance(i, j) and DependencyCost(vm k,
// rack i → rack j) on both twins with the eager values.
func assertDistancesAgree(t *testing.T, full, lazy *twin, truth func(a, b *dcn.Rack) float64, i, j, k int, label string) {
	t.Helper()
	fa, fb := full.c.Racks[i], full.c.Racks[j]
	la, lb := lazy.c.Racks[i], lazy.c.Racks[j]
	want := truth(fa, fb)
	if f, l := full.m.Distance(fa, fb), lazy.m.Distance(la, lb); !sameFloat(f, want) || !sameFloat(l, want) {
		t.Fatalf("%s: Distance(%d,%d) = %v, full refresh %v, eager %v", label, i, j, l, f, want)
	}
	want = wantDependencyCost(full.c, truth, full.vms[k], fa, fb)
	f, l := full.m.DependencyCost(full.vms[k], fa, fb), lazy.m.DependencyCost(lazy.vms[k], la, lb)
	if !sameFloat(f, want) || !sameFloat(l, want) {
		t.Fatalf("%s: DependencyCost(vm %d, %d → %d) = %v, full refresh %v, eager %v", label, k, i, j, l, f, want)
	}
}

func TestRefreshSourcesMatchesFullRefresh(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		full, lazy := newTwin(t, false), newTwin(t, deferred)
		truth := distanceTruth(full.c)
		rng := rand.New(rand.NewSource(21))
		racks := len(full.c.Racks)
		// Distance and DependencyCost queries arrive at a random point of
		// each round: before the lazy twin's refresh (on a deferred model's
		// first round, its first use), after it, or among the transmission
		// queries. After the wiring change they come first.
		distQueries := func(label string) {
			for q := 0; q < 10; q++ {
				assertDistancesAgree(t, full, lazy, truth, rng.Intn(racks), rng.Intn(racks), rng.Intn(len(full.vms)), label)
			}
		}
		for round := 0; round < 40; round++ {
			at := rng.Intn(4) // 0: before the refresh, 1: after it, 2: among the queries, 3: none
			if round == 15 {  // wiring change: both tables must rebuild
				for _, tw := range []*twin{full, lazy} {
					a, b := tw.c.Racks[0].NodeID, tw.c.Racks[racks-1].NodeID
					if err := tw.c.Graph.AddLink(a, b, 5, 0.5); err != nil {
						t.Fatal(err)
					}
				}
				truth = distanceTruth(full.c)
				at = 1
			}
			patch(rng, 12, full, lazy)
			full.m.Refresh()
			if at == 0 && round != 15 {
				distQueries("before refresh")
			}
			// A deferred model's very first use is a query, not a refresh: it
			// builds its tables from the link state it finds then.
			if firstUse := deferred && round == 0; !firstUse {
				var sources []int
				for _, r := range rng.Perm(racks)[:rng.Intn(racks+1)] {
					sources = append(sources, lazy.c.Racks[r].NodeID)
				}
				if round%5 == 0 && len(sources) > 0 { // repeated and non-rack nodes are ignored
					sources = append(sources, sources[0], lazy.c.Graph.SwitchNodes()[0], -1)
				}
				lazy.m.RefreshSources(sources, 1)
				if at == 1 {
					distQueries("after refresh")
				}
				// Link state moves on after the refresh; a row swept late
				// must still come out as the refresh would have left it.
				patch(rng, 4, full, lazy)
			}
			for q := 0; q < 30; q++ {
				if at == 2 && q == 15 {
					distQueries("among queries")
				}
				assertQueriesAgree(t, full, lazy, rng.Intn(racks), rng.Intn(racks), rng.Intn(len(full.vms)), "round")
			}
		}
		// Everything still agrees when read exhaustively.
		assertModelsAgree(t, full.c, lazy.m, full.m, "final")
		if full.m.distBuilds != 2 || lazy.m.distBuilds != 2 {
			t.Fatalf("distance tables built %d and %d times, want twice each: once per wiring", full.m.distBuilds, lazy.m.distBuilds)
		}
		if _, onDemand := lazy.m.SweepCounts(); onDemand == 0 {
			t.Fatal("no query ever met a stale row: the test did not exercise on-demand sweeps")
		}
		if _, onDemand := full.m.SweepCounts(); onDemand != 0 {
			t.Fatalf("full Refresh left %d rows to be swept on demand", onDemand)
		}
	}
}

// TestStaleRowsQueriedConcurrently is the -race test for the on-demand
// path: queries are safe from several goroutines, so several may meet the
// same stale row at once. The stamp check is the atomic fast path; the
// sweep happens once, behind the model's lock.
func TestStaleRowsQueriedConcurrently(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		full, lazy := newTwin(t, false), newTwin(t, deferred)
		rng := rand.New(rand.NewSource(9))
		patch(rng, 20, full, lazy)
		full.m.Refresh()
		if !deferred {
			lazy.m.RefreshSources([]int{lazy.c.Racks[0].NodeID}, 1)
		}
		racks := len(lazy.c.Racks)
		preparedBefore, _ := lazy.m.SweepCounts()
		stale := racks // rows no refresh has swept at the current weights
		outOfRegion := 0
		if !deferred {
			// Rack 0's prepared row is regional: the first read for a rack
			// outside its pod sweeps it in full, once, while other workers
			// go on reading it for its pod.
			stale--
			outOfRegion = 1
		}
		type answer struct {
			pair, trans, mig float64
		}
		const workers = 8
		got := make([][]answer, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				out := make([]answer, 0, racks*racks)
				for i := 0; i < racks; i++ {
					for j := 0; j < racks; j++ {
						a, b := lazy.c.Racks[(i+w)%racks], lazy.c.Racks[j]
						var ans answer
						ans.pair = lazy.m.RackPairCost(a, b)
						ans.trans, _ = lazy.m.TransmissionCost(a, b, 17)
						ans.mig, _ = lazy.m.Migration(lazy.vms[(i+w)%len(lazy.vms)], b.Hosts[0])
						out = append(out, ans)
					}
				}
				got[w] = out
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			k := 0
			for i := 0; i < racks; i++ {
				for j := 0; j < racks; j++ {
					a, b := full.c.Racks[(i+w)%racks], full.c.Racks[j]
					wantTrans, _ := full.m.TransmissionCost(a, b, 17)
					wantMig, _ := full.m.Migration(full.vms[(i+w)%len(full.vms)], b.Hosts[0])
					if g := got[w][k]; !sameFloat(g.pair, full.m.RackPairCost(a, b)) || g.trans != wantTrans || g.mig != wantMig {
						t.Fatalf("worker %d pair (%d,%d): got %+v, full refresh gives %v/%v/%v",
							w, a.Index, b.Index, g, full.m.RackPairCost(a, b), wantTrans, wantMig)
					}
					k++
				}
			}
		}
		prepared, onDemand := lazy.m.SweepCounts()
		if prepared != preparedBefore || int(onDemand) != stale+outOfRegion {
			t.Fatalf("queries swept %d rows on demand (and %d ahead), want each of the %d stale rows and %d regional rows swept exactly once",
				onDemand, prepared-preparedBefore, stale, outOfRegion)
		}
	}
}

// TestRefreshSourcesSteadyStateAllocs is the allocation gate (CI
// "Allocation gate" step). Every row of a refresh is swept on the caller
// on the table's one scratch, so once the scratch and the regions are
// grown a refresh of one rack, of several and of all of them allocates
// nothing.
func TestRefreshSourcesSteadyStateAllocs(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	all := c.Graph.Racks()
	m.RefreshSources(all, 1) // grow the scratch and every region
	alloctest.Count(t, "refresh-one", func() { m.RefreshSources(all[:1], 1) })
	alloctest.Count(t, "refresh-all", func() { m.RefreshSources(all, 1) })
	alloctest.Count(t, "refresh", m.Refresh)
	var sink float64
	a, b := c.Racks[0], c.Racks[len(c.Racks)-1]
	alloctest.Count(t, "queries", func() {
		tc, _ := m.TransmissionCost(a, b, 10)
		sink += tc + m.RackPairCost(a, b)
	})
	_ = sink
}

func TestRefreshSourcesIgnoresUnknownNodes(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	before, _ := m.SweepCounts()
	m.RefreshSources([]int{-3, c.Graph.NumNodes() + 4, c.Graph.SwitchNodes()[0], c.Racks[1].NodeID, c.Racks[1].NodeID}, 1)
	if after, _ := m.SweepCounts(); after-before != 1 {
		t.Fatalf("swept %d rows for one real rack named twice among junk", after-before)
	}
}

// TestDistanceTableOnlyForPeers: the distance table is built by the first
// query that reads it — Distance, or a dependency term that names a peer —
// and by no other query of any kind.
func TestDistanceTableOnlyForPeers(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	var vms []*dcn.VM
	for _, h := range c.Hosts() {
		vm, err := c.AddVM(h, 10, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	for _, vm := range vms {
		for _, r := range c.Racks {
			if _, err := m.Migration(vm, r.Hosts[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := m.RackMigration(vm.Host().Rack(), r, vm.Capacity, nil); err != nil {
				t.Fatal(err)
			}
			m.DependencyCost(vm, vm.Host().Rack(), r)
		}
	}
	m.RackCostMatrix()
	if m.distBuilds != 0 || m.distReady.Load() || m.dist != nil {
		t.Fatalf("queries that name no peer built the distance table (%d builds)", m.distBuilds)
	}
	c.Deps.AddDependency(vms[0].ID, vms[len(vms)-1].ID)
	src, dst := vms[0].Host().Rack(), c.Racks[1]
	if got, want := m.DependencyCost(vms[0], src, dst), wantDependencyCost(c, distanceTruth(c), vms[0], src, dst); got != want {
		t.Fatalf("DependencyCost = %v, eager %v", got, want)
	}
	m.Distance(c.Racks[0], c.Racks[2])
	if m.distBuilds != 1 {
		t.Fatalf("distance table built %d times, want once, by the first query naming a peer", m.distBuilds)
	}
}

// TestDistanceTableBuiltOnceConcurrently is the -race test for the lazy
// distance table: 8 goroutines price dependency terms on a fresh model of
// a fabric whose racks span several build blocks. The table is built once
// and every answer is the eager one.
func TestDistanceTableBuiltOnceConcurrently(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, deferred := range []bool{false, true} {
		c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Racks) <= distBlock {
			t.Fatalf("%d racks fit one build block of %d", len(c.Racks), distBlock)
		}
		tw := newTwinOn(t, c, PaperParams(), deferred)
		truth := distanceTruth(c)
		const workers = 8
		bad := make([]string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(tw.vms); k += 3 {
					vm := tw.vms[k]
					src, dst := vm.Host().Rack(), c.Racks[(k*7+w)%len(c.Racks)]
					if got, want := tw.m.DependencyCost(vm, src, dst), wantDependencyCost(c, truth, vm, src, dst); got != want {
						bad[w] = fmt.Sprintf("DependencyCost(vm %d, %d → %d) = %v, eager %v", vm.ID, src.Index, dst.Index, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w, msg := range bad {
			if msg != "" {
				t.Fatalf("deferred=%v worker %d: %s", deferred, w, msg)
			}
		}
		if tw.m.distBuilds != 1 {
			t.Fatalf("deferred=%v: distance table built %d times, want once", deferred, tw.m.distBuilds)
		}
	}
}
