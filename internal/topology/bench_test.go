package topology

import (
	"math/rand"
	"testing"
)

// Routing-core benchmarks: each pair runs the CSR implementation against
// the preserved seed walker on the planning-scale fabric of ISSUE PR 5
// (48-pod Fat-Tree: 2 880 switches, ~110 k directed links). Run with a
// fixed -benchtime so before/after numbers stay comparable:
//
//	go test -run=^$ -bench 'DijkstraFrom|MultiSourceSweep' -benchtime=2x -benchmem ./internal/topology/
//	go test -run=^$ -bench KShortest -benchtime=50x -benchmem ./internal/topology/

func benchFatTree(b *testing.B, pods int) *FatTree {
	b.Helper()
	ft, err := NewFatTree(FatTreeConfig{Pods: pods})
	if err != nil {
		b.Fatal(err)
	}
	return ft
}

// benchCost is bandwidth-sensitive like the model's transmission metric,
// so the sweep cannot shortcut to plain distance.
func benchCost(e Edge) float64 {
	if e.Bandwidth <= 0 {
		return Inf
	}
	return 10/e.Bandwidth + e.Bandwidth/e.Capacity
}

// loadFabric patches every link's available bandwidth to a seeded random
// 5…100 % of its capacity: a loaded fabric as benchCost reads it, where
// nearly every path has its own cost and a row keeps dozens to hundreds of
// distinct tentative distances pending.
func loadFabric(g *Graph, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < g.NumEdges(); id += 2 {
		g.SetBandwidthAt(id, g.EdgeAt(id).Capacity*(0.05+0.95*rng.Float64()))
	}
}

// BenchmarkSweepRow is the unit of the cost model's refresh: one rack row
// of a 16-pod Fat-Tree (the ft16 workloads' fabric), swept inline on warm
// tables; an op is one row, cycling over the racks. pristine prices links
// by DistanceCost, so nearly every relaxation ties; loaded prices them by
// benchCost after loadFabric, so nearly none does.
//
//	go test -run=^$ -bench SweepRow -benchtime=20000x -benchmem ./internal/topology/
func BenchmarkSweepRow(b *testing.B) {
	for _, tc := range []struct {
		name string
		cost EdgeCost
	}{{"pristine", DistanceCost}, {"loaded", benchCost}} {
		b.Run(tc.name, func(b *testing.B) {
			ft := benchFatTree(b, 16)
			if tc.name == "loaded" {
				loadFabric(ft.Graph, 1)
			}
			racks := ft.Racks()
			ms := DijkstraFromInto(ft.Graph, racks, tc.cost, nil)
			row := []int{0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row[0] = i % len(racks)
				ms.SweepRows(row)
			}
		})
	}
}

// BenchmarkDijkstraFrom measures one steady-state single-source sweep:
// tables and scratch already warm, only bandwidths changed since the last
// call. The CSR side must report 0 B/op, 0 allocs/op (CI asserts this via
// TestDijkstraSteadyStateZeroAlloc).
func BenchmarkDijkstraFrom(b *testing.B) {
	ft := benchFatTree(b, 48)
	src := []int{ft.RackIDs[0][0]}
	b.Run("csr", func(b *testing.B) {
		ms := DijkstraFromInto(ft.Graph, src, benchCost, nil) // warmup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ms = DijkstraFromInto(ft.Graph, src, benchCost, ms)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceDijkstraFrom(ft.Graph, src, benchCost)
		}
	})
}

// BenchmarkMultiSourceSweep is the planning-scale workload behind
// cost.Model.Refresh: every ToR is a source (1 152 sweeps per op on the
// 48-pod fabric). The acceptance bar for PR 5 is csr ≥ 3x reference here.
func BenchmarkMultiSourceSweep(b *testing.B) {
	ft := benchFatTree(b, 48)
	racks := ft.Racks()
	b.Run("csr", func(b *testing.B) {
		ms := DijkstraFromInto(ft.Graph, racks, benchCost, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ms = DijkstraFromInto(ft.Graph, racks, benchCost, ms)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceDijkstraFrom(ft.Graph, racks, benchCost)
		}
	})
}

// BenchmarkKShortest exercises Yen's spur loop (FLOWREROUTE alternatives)
// between far-apart racks. The fabric is smaller (8 pods) because the
// reference side rebuilds maps and filter closures per spur.
func BenchmarkKShortest(b *testing.B) {
	ft := benchFatTree(b, 8)
	src, dst := ft.RackIDs[0][0], ft.RackIDs[7][3]
	b.Run("csr", func(b *testing.B) {
		KShortestPaths(ft.Graph, src, dst, 8, benchCost) // warmup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			KShortestPaths(ft.Graph, src, dst, 8, benchCost)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceKShortestPaths(ft.Graph, src, dst, 8, benchCost)
		}
	})
}
