package sheriff

import (
	"math/rand"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/arima"
	"sheriff/internal/comm"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/flow"
	"sheriff/internal/migrate"
	"sheriff/internal/placement"
	"sheriff/internal/qcn"
	"sheriff/internal/runtime"
	"sheriff/internal/timeseries"
	"sheriff/internal/topology"
)

// --- Extended substrate benches: QCN, flow plane, runtime, coordinator ---

func BenchmarkQCNTunnelStep(b *testing.B) {
	cp, err := qcn.NewCongestionPoint(qcn.CPConfig{QEq: 600})
	if err != nil {
		b.Fatal(err)
	}
	rp, err := qcn.NewReactionPoint(qcn.RPConfig{LineRate: 10, BCLimit: 30})
	if err != nil {
		b.Fatal(err)
	}
	tn, err := qcn.NewTunnel(cp, rp, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.Step()
	}
}

func BenchmarkFlowAddRemove(b *testing.B) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
	if err != nil {
		b.Fatal(err)
	}
	n := flow.NewNetwork(ft.Graph)
	racks := ft.Racks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := n.AddFlow(racks[i%len(racks)], racks[(i+7)%len(racks)], 0.2, false)
		if err != nil {
			b.Fatal(err)
		}
		n.RemoveFlow(f.ID)
	}
}

// BenchmarkFlowRerouteAroundHot times the runtime's congestion remedy —
// one FLOWREROUTE pass per switch at or above the hot threshold — from a
// congested state: seeded random rack-to-rack flows, admitted until
// several switches run hot. Every iteration puts that state back outside
// the timer (same network, so the pass scratch stays warm, as in a running
// daemon) and must move at least one flow.
func BenchmarkFlowRerouteAroundHot(b *testing.B) {
	const threshold = 0.9
	bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 8})
	if err != nil {
		b.Fatal(err)
	}
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		g     *topology.Graph
		flows int
	}{{"bcube8", bc.Graph, 320}, {"fattree8", ft.Graph, 480}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(16))
			racks := tc.g.Racks()
			n := flow.NewNetwork(tc.g)
			for admitted := 0; admitted < tc.flows; {
				src, dst := racks[rng.Intn(len(racks))], racks[rng.Intn(len(racks))]
				if src == dst {
					continue
				}
				if _, err := n.AddFlow(src, dst, 0.05+0.25*rng.Float64(), rng.Intn(5) == 0); err != nil {
					b.Fatal(err)
				}
				admitted++
			}
			congested := n.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			reroutes := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, f := range n.Flows() {
					n.RemoveFlow(f.ID)
				}
				if err := n.Restore(congested); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				moved := 0
				for _, sw := range n.HotSwitches(threshold) {
					moved += len(n.RerouteAroundHot(sw, threshold))
				}
				if moved == 0 {
					b.Fatal("no flow moved: the benchmark is timing an empty scan")
				}
				reroutes += moved
			}
			b.ReportMetric(float64(reroutes)/float64(b.N), "reroutes/op")
		})
	}
}

func BenchmarkKShortestPaths(b *testing.B) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
	if err != nil {
		b.Fatal(err)
	}
	src, dst := ft.RackIDs[0][0], ft.RackIDs[4][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := topology.KShortestPaths(ft.Graph, src, dst, 4, topology.DistanceCost); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkDijkstraAllRacks(b *testing.B) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 16})
	if err != nil {
		b.Fatal(err)
	}
	racks := ft.Racks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.DijkstraFrom(ft.Graph, racks, topology.DistanceCost)
	}
}

func BenchmarkSARIMAFit(b *testing.B) {
	s := benchSeries(448)
	order := arima.SeasonalOrder{Order: arima.Order{P: 1, Q: 1}, SP: 1, SD: 1, Period: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.FitSeasonal(s, order); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	s := benchSeries(448)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timeseries.Decompose(s, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRuntime(b *testing.B) *runtime.Runtime {
	b.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		b.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{
		VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 15,
		DependencyProb: 0.4, CrossRackDependencyProb: 0.4, Seed: benchSeed,
	})
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	rt, err := runtime.New(cluster, model, runtime.Options{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

func BenchmarkRuntimeStep(b *testing.B) {
	rt := benchRuntime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoordinatorRound(b *testing.B) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
	if err != nil {
		b.Fatal(err)
	}
	cluster.Populate(dcn.PopulateOptions{VMsPerHost: 4, MinCapacity: 5, MaxCapacity: 20, Seed: benchSeed})
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	var shims []*migrate.Shim
	for _, r := range cluster.Racks {
		s, err := migrate.NewShim(cluster, model, r, migrate.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		shims = append(shims, s)
	}
	co := migrate.NewCoordinator(cluster, model, shims)
	alerts := make([][]alert.Alert, len(shims))
	for i, shim := range shims {
		for _, h := range shim.Rack.Hosts {
			alerts[i] = append(alerts[i], alert.Alert{Kind: alert.FromServer, HostID: h.ID, Value: 0.92})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.Round(alerts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedVMMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
		if err != nil {
			b.Fatal(err)
		}
		cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
		if err != nil {
			b.Fatal(err)
		}
		model, err := cost.New(cluster, cost.PaperParams())
		if err != nil {
			b.Fatal(err)
		}
		var shims []*migrate.Shim
		for _, r := range cluster.Racks {
			s, err := migrate.NewShim(cluster, model, r, migrate.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			shims = append(shims, s)
		}
		sets := make([][]*dcn.VM, len(shims))
		for ri := 0; ri < 4; ri++ {
			h := cluster.Racks[ri].Hosts[0]
			for k := 0; k < 3; k++ {
				vm, err := cluster.AddVM(h, 20, 1, false)
				if err != nil {
					b.Fatal(err)
				}
				sets[ri] = append(sets[ri], vm)
			}
		}
		bus, err := comm.NewBus(comm.Options{LossRate: 0.1, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := migrate.DistributedVMMigration(cluster, model, bus, shims, sets, migrate.DistOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacementPolicies(b *testing.B) {
	caps := make([]float64, 48)
	for i := range caps {
		caps[i] = 10
	}
	for _, pol := range []placement.Kind{placement.FirstFit, placement.BestFit, placement.WorstFit} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 4})
				if err != nil {
					b.Fatal(err)
				}
				cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{HostsPerRack: 2, HostCapacity: 100, ToRCapacity: 200})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := placement.New(cluster, pol, benchSeed).PlaceAll(caps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
