package migrate_test

import (
	"fmt"
	"log"

	"sheriff/internal/comm"
	"sheriff/internal/cost"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
	"sheriff/internal/topology"
)

// fatTreeShims builds a k-pod Fat-Tree cluster with hostsPerRack hosts of
// capacity 100 per rack, its cost model and one shim per rack.
func fatTreeShims(pods, hostsPerRack int) (*dcn.Cluster, *cost.Model, []*migrate.Shim, error) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{Pods: pods})
	if err != nil {
		return nil, nil, nil, err
	}
	cluster, err := dcn.NewCluster(ft.Graph, dcn.Config{
		HostsPerRack: hostsPerRack, HostCapacity: 100, ToRCapacity: 100 * float64(hostsPerRack),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := cost.New(cluster, cost.PaperParams())
	if err != nil {
		return nil, nil, nil, err
	}
	shims := make([]*migrate.Shim, 0, len(cluster.Racks))
	for _, r := range cluster.Racks {
		s, err := migrate.NewShim(cluster, model, r, migrate.DefaultParams(), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		shims = append(shims, s)
	}
	return cluster, model, shims, nil
}

// ExampleDistributedVMMigration runs the Sec. V.B conflict-avoidance
// machinery as an actual message exchange: shims send REQUEST envelopes
// over a lossy bus, destinations grant capacity FCFS and reply
// ACK/REJECT, and the protocol converges by timeout and retransmission.
func ExampleDistributedVMMigration() {
	cluster, model, shims, err := fatTreeShims(4, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Three overloaded VMs in rack 0, two in rack 1 (same pod): both
	// shims compete for the pod's free slots.
	sets := make([][]*dcn.VM, len(shims))
	for i, n := range []int{3, 2} {
		h := cluster.Racks[i].Hosts[0]
		for k := 0; k < n; k++ {
			vm, err := cluster.AddVM(h, 25, float64(k+1), false)
			if err != nil {
				log.Fatal(err)
			}
			sets[i] = append(sets[i], vm)
		}
	}
	fmt.Printf("rack 0 sheds %d VMs, rack 1 sheds %d; pod capacity is shared\n",
		len(sets[0]), len(sets[1]))

	// A fault plan that drops 20% of messages and delays the rest up to 1
	// round.
	inj, err := faults.New(faults.Plan{Seed: 7, Drop: 0.2, Jitter: 1})
	if err != nil {
		log.Fatal(err)
	}
	bus := comm.NewBus(comm.Options{Injector: inj})
	res, err := migrate.DistributedVMMigration(cluster, model, bus, shims, sets, migrate.DistOptions{})
	if err != nil {
		log.Fatal(err)
	}

	sent, dropped := bus.Stats()
	fmt.Printf("protocol finished in %d rounds\n", res.Rounds)
	fmt.Printf("messages: %d sent, %d dropped by the fabric\n", sent, dropped)
	fmt.Printf("outcome: %d migrations (cost %.1f), %d rejections, %d retransmits, %d unplaced\n",
		len(res.Migrations), res.TotalCost, res.Rejected, res.Retransmits, len(res.Unplaced))
	for _, m := range res.Migrations {
		fmt.Printf("  %s -> host %d (rack %d) at cost %.1f\n",
			m.VM.Name, m.To.ID, m.To.Rack().Index, m.Cost)
	}

	// Despite loss and contention, nothing is oversubscribed.
	for _, h := range cluster.Hosts() {
		if h.Used() > h.Capacity {
			log.Fatalf("host %d oversubscribed", h.ID)
		}
	}
	fmt.Println("all hosts within capacity — conflicts resolved by the REQUEST/ACK handshake")
	// Output:
	// rack 0 sheds 3 VMs, rack 1 sheds 2; pod capacity is shared
	// protocol finished in 4 rounds
	// messages: 11 sent, 2 dropped by the fabric
	// outcome: 5 migrations (cost 604.0), 0 rejections, 1 retransmits, 0 unplaced
	//   vm-0 -> host 1 (rack 0) at cost 100.0
	//   vm-2 -> host 3 (rack 1) at cost 152.0
	//   vm-1 -> host 2 (rack 1) at cost 152.0
	//   vm-3 -> host 3 (rack 1) at cost 100.0
	//   vm-4 -> host 3 (rack 1) at cost 100.0
	// all hosts within capacity — conflicts resolved by the REQUEST/ACK handshake
}
