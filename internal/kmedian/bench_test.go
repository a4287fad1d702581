package kmedian

import (
	"fmt"
	"sync"
	"testing"

	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/topology"
)

// Before/after benchmarks for the migration-planning engine. "delta" is
// the incremental engine (cached nearest/second-nearest, lazy candidate
// ranks, pooled scan); "naive" is the seed implementation preserved in
// reference_test.go. Run both sides with fixed -benchtime counts so
// iteration counts match across runs:
//
//	go test -run - -bench 'BenchmarkFatTreePlanning48|BenchmarkExact' -benchtime 1x -benchmem -timeout 0 ./internal/kmedian/
//	go test -run - -bench 'BenchmarkLocalSearch/(line|metric)/n=(64|256)' -benchtime 3x ./internal/kmedian/

const benchSeed = 20150707

func benchInstance(kind string, n, k int) *Instance {
	if kind == "line" {
		return lineInstance(n, k)
	}
	return randomMetricInstance(n, k, benchSeed)
}

func BenchmarkLocalSearch(b *testing.B) {
	for _, kind := range []string{"line", "metric"} {
		for _, n := range []int{64, 256, 1024} {
			in := benchInstance(kind, n, 8)
			for _, impl := range []struct {
				name string
				run  func(*Instance, Options) (*Solution, error)
			}{
				{"delta", LocalSearch},
				{"naive", referenceLocalSearch},
			} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", kind, n, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := impl.run(in, Options{P: 1, Seed: benchSeed}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkExact(b *testing.B) {
	// Exact stays exponential, so K shrinks as n grows to keep both sides
	// of the comparison physically runnable: the interesting number is the
	// bnb/enum ratio at each size, not an absolute wall time.
	cases := []struct {
		kind string
		n, k int
		enum bool
	}{
		{"line", 64, 4, true},
		{"metric", 64, 4, true},
		{"line", 256, 3, true},
		{"metric", 256, 3, true},
		{"line", 1024, 2, true},
		{"metric", 1024, 2, true},
	}
	for _, tc := range cases {
		in := benchInstance(tc.kind, tc.n, tc.k)
		b.Run(fmt.Sprintf("%s/n=%d/bnb", tc.kind, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Exact(in); err != nil {
					b.Fatal(err)
				}
			}
		})
		if !tc.enum {
			continue
		}
		b.Run(fmt.Sprintf("%s/n=%d/enum", tc.kind, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := referenceExact(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var planInstance48 = sync.OnceValues(func() (*Instance, error) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 48})
	if err != nil {
		return nil, err
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 1, HostCapacity: 100, ToRCapacity: 100})
	if err != nil {
		return nil, err
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		return nil, err
	}
	n := len(cluster.Racks)
	facilities := make([]int, n)
	for i := range facilities {
		facilities[i] = i
	}
	// Clients: the racks of the hot half of the pods, mirroring the
	// Figs. 11–14 hotspot regime where alerted load must cross pods.
	var clients []int
	for i, r := range cluster.Racks {
		if cluster.Graph.Node(r.NodeID).Pod < 24 {
			clients = append(clients, i)
		}
	}
	return &Instance{Cost: model.RackCostMatrix(), Clients: clients, Facilities: facilities, K: 32}, nil
})

// BenchmarkFatTreePlanning48 is one Sec. V.A destination-planning round at
// the paper's full 48-pod scale: 1152 racks as facilities, the 576 racks
// of the hot pods as clients, K = 32 destination ToRs.
func BenchmarkFatTreePlanning48(b *testing.B) {
	in, err := planInstance48()
	if err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name string
		run  func(*Instance, Options) (*Solution, error)
	}{
		{"delta", LocalSearch},
		{"naive", referenceLocalSearch},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := impl.run(in, Options{P: 1, Seed: benchSeed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
