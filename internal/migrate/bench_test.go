package migrate_test

import (
	"testing"

	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
	"sheriff/internal/sim"
)

const benchSeed = 20150707

// BenchmarkDistributedVMMigration times the Alg. 3/4 message protocol: four
// racks of a 4-pod Fat-Tree shed three VMs each over a bus that drops 10%
// of messages.
func BenchmarkDistributedVMMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster, model, shims, err := fatTreeShims(4, 2)
		if err != nil {
			b.Fatal(err)
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

// BenchmarkShimProcessAlerts times one balancing round (Alg. 1 on every
// alerted rack) of a skewed 8-pod Fat-Tree.
func BenchmarkShimProcessAlerts(b *testing.B) {
	s, err := sim.Build(sim.Config{Kind: sim.FatTree, Size: 8, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	s.PopulateSkewed(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.BalancingRound(0.05); err != nil {
			b.Fatal(err)
		}
	}
}
