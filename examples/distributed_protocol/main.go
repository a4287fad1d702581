// Distributed protocol: the Sec. V.B conflict-avoidance machinery as an
// actual message exchange — shims send REQUEST envelopes over a lossy
// bus, destinations grant capacity FCFS and reply ACK/REJECT, and the
// protocol converges by timeout and retransmission.
package main

import (
	"fmt"
	"log"

	"sheriff"
	"sheriff/internal/comm"
	"sheriff/internal/dcn"
	"sheriff/internal/faults"
	"sheriff/internal/migrate"
)

func main() {
	cluster, model, shims, err := sheriff.NewFatTreeCluster(4, 2, 100)
	if err != nil {
		log.Fatal(err)
	}

	// Three overloaded VMs in rack 0, two in rack 1 (same pod): both
	// shims compete for the pod's free slots.
	var sets = make([][]*dcn.VM, len(shims))
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

	// Invariant check: despite loss and contention, nothing oversubscribed.
	for _, h := range cluster.Hosts() {
		if h.Used() > h.Capacity {
			log.Fatalf("host %d oversubscribed!", h.ID)
		}
	}
	fmt.Println("all hosts within capacity — conflicts resolved by the REQUEST/ACK handshake")
}
