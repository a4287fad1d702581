package cost

import (
	"math/rand"
	"testing"
	"time"

	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// BenchmarkModelRefresh measures a full-table rebuild after a bandwidth
// change: every rack's row, as Refresh sweeps them (the runtime itself
// calls RefreshSources, for the racks about to price moves, before its
// first shim of a period; see BenchmarkRefreshSources). fused is the
// production path: steady-state bandwidth-only refresh reusing warm tables
// and skipping the distance sweep; naive is the seed's two fresh
// map-backed sweeps. Record with
//
//	go test -run=^$ -bench ModelRefresh -benchtime=2x -benchmem ./internal/cost/
func BenchmarkModelRefresh(b *testing.B) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 48})
	if err != nil {
		b.Fatal(err)
	}
	c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(c, PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fused", func(b *testing.B) {
		m.Refresh() // warm tables
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Refresh()
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.refreshNaive()
		}
	})
}

// surgeRefresh builds the fabric of BenchmarkRefreshSources and
// TestRegionalRowsSettledCeiling, the manage phase's refresh on the fabric
// of the ft16-surge workload (Fat-Tree 16, 128 racks, 320 nodes): links
// whose bandwidths are patched from a seed to look like its loaded state,
// and 30 source racks, about as many as price moves in one of its periods.
func surgeRefresh(tb testing.TB) (*Model, []int) {
	tb.Helper()
	const sources = 30
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 16})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		tb.Fatal(err)
	}
	// The workload's links after warm-up: about half carry load, most of
	// those keep half their capacity or more, and a few are full.
	g := c.Graph
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < g.NumEdges(); id += 2 {
		switch r := rng.Float64(); {
		case r < 0.02:
			g.SetBandwidthAt(id, 0)
		case r < 0.5:
			g.SetBandwidthAt(id, (0.5+0.5*rng.Float64())*g.EdgeAt(id).Capacity)
		}
	}
	var nodes []int
	for _, r := range rng.Perm(len(c.Racks))[:sources] {
		nodes = append(nodes, c.Racks[r].NodeID)
	}
	m, err := New(c, PaperParams())
	if err != nil {
		tb.Fatal(err)
	}
	return m, nodes
}

// BenchmarkRefreshSources times surgeRefresh's refresh. regional sweeps each
// row until the racks of its one-hop region, or all their neighbours, have
// settled, dropping every push that cannot reach one of them cheaply
// enough, as the runtime asks; full sweeps whole rows. Both report nodes settled and µs per row. Record
// with
//
//	go test -run=^$ -bench RefreshSources -benchtime=2000x ./internal/cost/
func BenchmarkRefreshSources(b *testing.B) {
	m, nodes := surgeRefresh(b)
	for _, bc := range []struct {
		name string
		hops int
	}{{"regional", 1}, {"full", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			m.RefreshSources(nodes, bc.hops) // build the regions, warm the scratch
			settled := m.trans.SweptNodes()
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				m.RefreshSources(nodes, bc.hops)
			}
			rows := float64(b.N * len(nodes))
			b.ReportMetric(float64(m.trans.SweptNodes()-settled)/rows, "nodes/row")
			b.ReportMetric(float64(time.Since(start).Microseconds())/rows, "µs/row")
		})
	}
}

// TestRegionalRowsSettledCeiling holds the regional rows of surgeRefresh to
// their work: at most 40 of the 320 nodes settled per row, where the two
// stops and the push bound settle 24.5. A bound that stops dropping
// pushes breaks it.
func TestRegionalRowsSettledCeiling(t *testing.T) {
	const ceiling = 40
	m, nodes := surgeRefresh(t)
	before := m.trans.SweptNodes()
	m.RefreshSources(nodes, 1)
	got := float64(m.trans.SweptNodes()-before) / float64(len(nodes))
	if got > ceiling {
		t.Fatalf("regional rows settled %.1f nodes each, ceiling %d", got, ceiling)
	}
	t.Logf("%.1f nodes settled per regional row", got)
}
