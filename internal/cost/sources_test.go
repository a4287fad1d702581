package cost

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/pool"
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

func TestRefreshSourcesMatchesFullRefresh(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		full, lazy := newTwin(t, false), newTwin(t, deferred)
		rng := rand.New(rand.NewSource(21))
		racks := len(full.c.Racks)
		for round := 0; round < 40; round++ {
			if round == 15 { // wiring change: both tables must rebuild
				for _, tw := range []*twin{full, lazy} {
					a, b := tw.c.Racks[0].NodeID, tw.c.Racks[racks-1].NodeID
					if err := tw.c.Graph.AddLink(a, b, 5, 0.5); err != nil {
						t.Fatal(err)
					}
				}
			}
			patch(rng, 12, full, lazy)
			full.m.Refresh()
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
				// Link state moves on after the refresh; a row swept late
				// must still come out as the refresh would have left it.
				patch(rng, 4, full, lazy)
			}
			for q := 0; q < 30; q++ {
				assertQueriesAgree(t, full, lazy, rng.Intn(racks), rng.Intn(racks), rng.Intn(len(full.vms)), "round")
			}
		}
		// Everything still agrees when read exhaustively.
		assertModelsAgree(t, full.c, lazy.m, full.m, "final")
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
// "Allocation gate" step). A refresh that names one rack runs inline and
// must not allocate. One that names several fans out over the shared pool,
// whose goroutine hand-off costs a few control objects per call — a fixed
// price that must not grow with the number of rows.
func TestRefreshSourcesSteadyStateAllocs(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	all := c.Graph.Racks()
	m.RefreshSources(all, 1) // warm every worker's scratch and every region
	if got := testing.AllocsPerRun(20, func() { m.RefreshSources(all[:1], 1) }); got != 0 {
		t.Errorf("RefreshSources(1 rack) allocates %v times per call in steady state, want 0", got)
	}
	k := max(2, min(pool.Shared().Workers(), len(all))) // fewest rows that use every worker
	wide := testing.AllocsPerRun(20, func() { m.RefreshSources(all[:k], 1) })
	full := testing.AllocsPerRun(20, func() { m.Refresh() })
	if full > wide {
		t.Errorf("Refresh (all %d racks) allocates %v times per call, RefreshSources(%d racks) %v: allocation grows with rows", len(all), full, k, wide)
	}
	var sink float64
	a, b := c.Racks[0], c.Racks[len(c.Racks)-1]
	if got := testing.AllocsPerRun(20, func() {
		tc, _ := m.TransmissionCost(a, b, 10)
		sink += tc + m.RackPairCost(a, b)
	}); got != 0 {
		t.Errorf("TransmissionCost + RackPairCost allocate %v times per call, want 0", got)
	}
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
