package cost

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// The production refresh (retained weights, reused tables, distance sweep
// skipped while the wiring is unchanged) must be bit-identical to the
// seed's two independent fresh sweeps, including across in-place bandwidth
// updates. "fused" is the name the production side has carried since the
// two metrics were swept in one pass.

// refreshNaive is the seed's Refresh, kept as the "before" side of
// BenchmarkModelRefresh and as ground truth for the fused-refresh equivalence
// test: two independent full sweeps with fresh tables, one after the
// other.
func (m *Model) refreshNaive() {
	racks := m.cluster.Graph.Racks()
	t := &table{trans: topology.DijkstraFrom(m.cluster.Graph, racks, m.transCost), swept: make([]atomic.Uint64, len(racks))}
	dist := topology.DijkstraFrom(m.cluster.Graph, racks, topology.DistanceCost)
	m.dist = m.dist[:0]
	for _, a := range racks {
		for _, b := range racks {
			m.dist = append(m.dist, dist.Dist(a, b))
		}
	}
	m.distReady.Store(true)
	m.structVer = m.cluster.Graph.StructVersion()
	m.gen = 1
	for i := range t.swept {
		t.swept[i].Store(m.gen)
	}
	m.tab.Store(t)
	m.ready.Store(true)
}

func assertModelsAgree(t *testing.T, c *dcn.Cluster, fused, naive *Model, label string) {
	t.Helper()
	for _, a := range c.Racks {
		for _, b := range c.Racks {
			gf, gn := fused.RackPairCost(a, b), naive.RackPairCost(a, b)
			if gf != gn && !(math.IsInf(gf, 1) && math.IsInf(gn, 1)) {
				t.Fatalf("%s: RackPairCost(%d,%d) = %v, naive %v", label, a.Index, b.Index, gf, gn)
			}
			df, dn := fused.Distance(a, b), naive.Distance(a, b)
			if df != dn && !(math.IsInf(df, 1) && math.IsInf(dn, 1)) {
				t.Fatalf("%s: Distance(%d,%d) = %v, naive %v", label, a.Index, b.Index, df, dn)
			}
			tf, ef := fused.TransmissionCost(a, b, 25)
			tn, en := naive.TransmissionCost(a, b, 25)
			if (ef == nil) != (en == nil) || tf != tn {
				t.Fatalf("%s: TransmissionCost(%d,%d) = %v/%v, naive %v/%v", label, a.Index, b.Index, tf, ef, tn, en)
			}
		}
	}
}

func TestFusedRefreshMatchesNaive(t *testing.T) {
	cf := testCluster(t)
	cn := testCluster(t)
	fused := testModel(t, cf)
	naive := testModel(t, cn)
	naive.refreshNaive()
	assertModelsAgree(t, cf, fused, naive, "fresh")

	// Degrade bandwidths identically on both graphs and refresh: the
	// fused model patches its CSR and reuses its tables, the naive one
	// rebuilds everything from scratch.
	rng := rand.New(rand.NewSource(7))
	mutate := func(g *topology.Graph) {
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 25; i++ {
			a := r.Intn(g.NumNodes())
			es := g.Edges(a)
			if len(es) == 0 {
				continue
			}
			e := es[r.Intn(len(es))]
			g.SetBandwidth(e.From, e.To, float64(r.Intn(5))/4)
		}
	}
	_ = rng
	mutate(cf.Graph)
	mutate(cn.Graph)
	fused.Refresh()
	naive.refreshNaive()
	assertModelsAgree(t, cf, fused, naive, "degraded")

	// A second steady-state refresh must also hold (distance table is
	// carried over, not recomputed).
	fused.Refresh()
	assertModelsAgree(t, cf, fused, naive, "steady")
}

// TestRefreshAfterWiringChange exercises the structural-invalidation arm:
// new racks appear after New, and the fused refresh must pick them up
// exactly like a freshly built model.
func TestRefreshAfterWiringChange(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	g := c.Graph
	// Splice a new link between two existing ToRs: wiring changes, rack
	// set stays, distance table must be rebuilt.
	a, b := c.Racks[0].NodeID, c.Racks[len(c.Racks)-1].NodeID
	before := m.Distance(c.Racks[0], c.Racks[len(c.Racks)-1]) // builds the old wiring's table
	if err := g.AddLink(a, b, 5, 0.5); err != nil {
		t.Fatal(err)
	}
	m.Refresh()
	fresh := testModel(t, c)
	assertModelsAgree(t, c, m, fresh, "relinked")
	if got := m.Distance(c.Racks[0], c.Racks[len(c.Racks)-1]); got != 0.5 || before == 0.5 {
		t.Fatalf("new link not visible to distance table: %v, %v before it", got, before)
	}
}

// TestSteadyRefreshReusesTables: a bandwidth-only refresh keeps the
// transmission table and the distance table its first read built.
func TestSteadyRefreshReusesTables(t *testing.T) {
	c := testCluster(t)
	m := testModel(t, c)
	before := m.tab.Load().trans
	m.Refresh()
	if m.tab.Load().trans != before {
		t.Fatal("steady refresh did not reuse the transmission table")
	}
	m.Distance(c.Racks[0], c.Racks[1]) // the first read builds the distance table
	m.dist[1] = -1                     // a mark a distance sweep would overwrite
	m.Refresh()
	if got := m.Distance(c.Racks[0], c.Racks[1]); got != -1 {
		t.Fatalf("steady refresh recomputed the distance table: read %v", got)
	}
}
