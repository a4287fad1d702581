package topology

import (
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
