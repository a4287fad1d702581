package sheriff

import (
	"math/rand"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/comm"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/flow"
	"sheriff/internal/migrate"
	"sheriff/internal/qcn"
	"sheriff/internal/runtime"
	"sheriff/internal/timeseries"
	"sheriff/internal/topology"
)

// --- Extended substrate benches: QCN, flow plane, runtime, migration ---

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

// rerouteScenarios are the congested states BenchmarkFlowRerouteAroundHot
// starts from. ceiling bounds the nodes a route search may settle on
// average over the scenario's FLOWREROUTE passes: the count repeats
// exactly, so a probe or bound that stops working shows as a number, not
// as a timing (21.2 and 24.1 today; 54 and 59 of 80 nodes with no bound at
// all). BCube 8 sits above the 20 the issue expected of this scenario: a
// walk turned aside by the masked switch next to dst ends at 8 against an
// optimum of 6, and those searches settle most of what is settled.
var rerouteScenarios = []struct {
	name    string
	build   func() (*topology.Graph, error)
	flows   int
	ceiling float64
}{
	{"bcube8", func() (*topology.Graph, error) {
		bc, err := topology.NewBCube(topology.BCubeConfig{SwitchesPerLevel: 8})
		return bc.Graph, err
	}, 320, 23},
	{"fattree8", func() (*topology.Graph, error) {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: 8})
		return ft.Graph, err
	}, 480, 26},
}

const rerouteHotThreshold = 0.9

// congestedNetwork admits seeded random rack-to-rack flows until several
// switches run hot, and returns the network with a snapshot of that state.
func congestedNetwork(tb testing.TB, g *topology.Graph, flows int) (*flow.Network, *flow.Snapshot) {
	tb.Helper()
	rng := rand.New(rand.NewSource(16))
	racks := g.Racks()
	n := flow.NewNetwork(g)
	for admitted := 0; admitted < flows; {
		src, dst := racks[rng.Intn(len(racks))], racks[rng.Intn(len(racks))]
		if src == dst {
			continue
		}
		if _, err := n.AddFlow(src, dst, 0.05+0.25*rng.Float64(), rng.Intn(5) == 0); err != nil {
			tb.Fatal(err)
		}
		admitted++
	}
	return n, n.Snapshot()
}

// rerouteHot is the runtime's congestion remedy: one FLOWREROUTE pass per
// switch at or above the hot threshold. It returns the flows moved.
func rerouteHot(n *flow.Network) int {
	moved := 0
	for _, sw := range n.HotSwitches(rerouteHotThreshold) {
		moved += len(n.RerouteAroundHot(sw, rerouteHotThreshold))
	}
	return moved
}

// checkSettledCeiling fails when the searches run since (searches0,
// settled0) settled more nodes each than the scenario allows, and returns
// the nodes settled.
func checkSettledCeiling(tb testing.TB, n *flow.Network, searches0, settled0 int, ceiling float64) int {
	tb.Helper()
	searches, settled := n.SearchStats()
	searches, settled = searches-searches0, settled-settled0
	if searches == 0 || float64(settled) > ceiling*float64(searches) {
		tb.Fatalf("%d route searches settled %d nodes, ceiling %v each", searches, settled, ceiling)
	}
	return settled
}

// TestRerouteSearchSettledCeiling holds the goal-directed route search to
// its work: see rerouteScenarios.
func TestRerouteSearchSettledCeiling(t *testing.T) {
	for _, sc := range rerouteScenarios {
		g, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		n, _ := congestedNetwork(t, g, sc.flows)
		searches0, settled0 := n.SearchStats()
		if rerouteHot(n) == 0 {
			t.Fatalf("%s: no flow moved", sc.name)
		}
		checkSettledCeiling(t, n, searches0, settled0, sc.ceiling)
	}
}

// BenchmarkFlowRerouteAroundHot times the runtime's congestion remedy from
// a congested state. Every iteration puts that state back outside the
// timer (same network, so the pass scratch stays warm, as in a running
// daemon) and must move at least one flow.
func BenchmarkFlowRerouteAroundHot(b *testing.B) {
	for _, sc := range rerouteScenarios {
		b.Run(sc.name, func(b *testing.B) {
			g, err := sc.build()
			if err != nil {
				b.Fatal(err)
			}
			n, congested := congestedNetwork(b, g, sc.flows)
			searches0, settled0 := n.SearchStats()
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
				moved := rerouteHot(n)
				if moved == 0 {
					b.Fatal("no flow moved: the benchmark is timing an empty scan")
				}
				reroutes += moved
			}
			b.ReportMetric(float64(reroutes)/float64(b.N), "reroutes/op")
			settled := checkSettledCeiling(b, n, searches0, settled0, sc.ceiling)
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
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
		inj, err := faults.New(faults.Plan{Seed: benchSeed, Drop: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		bus := comm.NewBus(comm.Options{Injector: inj})
		b.StartTimer()
		if _, err := migrate.DistributedVMMigration(cluster, model, bus, shims, sets, migrate.DistOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
