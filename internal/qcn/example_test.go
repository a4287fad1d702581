package qcn_test

import (
	"fmt"
	"log"

	"sheriff/internal/qcn"
)

// ExampleTunnel converges an end-host sender onto a bottleneck. A sender
// at line rate 10 shares a bottleneck that drains 6 per step. The
// congestion point samples Fb = −(Q_off + w·Q_delta); the reaction point
// backs off and then recovers toward the bottleneck rate.
func ExampleTunnel() {
	cp, err := qcn.NewCongestionPoint(qcn.CPConfig{QEq: 600})
	if err != nil {
		log.Fatal(err)
	}
	rp, err := qcn.NewReactionPoint(qcn.RPConfig{LineRate: 10, BCLimit: 30})
	if err != nil {
		log.Fatal(err)
	}
	tunnel, err := qcn.NewTunnel(cp, rp, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("QCN convergence (line rate 10, bottleneck 6):")
	fmt.Println("step   rate   queue  occupancy")
	for i := 0; i <= 2000; i++ {
		tunnel.Step()
		if i%250 == 0 {
			fmt.Printf("%4d  %5.2f  %6.0f  %8.2f\n", i, rp.Rate(), cp.Len(), cp.Occupancy())
		}
	}
	fmt.Printf("feedback messages delivered: %d, drops: %.0f\n", tunnel.Feedbacks(), cp.Dropped())
	// Output:
	// QCN convergence (line rate 10, bottleneck 6):
	// step   rate   queue  occupancy
	//    0  10.00       4      0.00
	//  250   5.50     505      0.21
	//  500   6.62     557      0.23
	//  750   6.14     580      0.24
	// 1000   5.65     601      0.25
	// 1250   6.32     591      0.25
	// 1500   6.20     594      0.25
	// 1750   5.80     601      0.25
	// 2000   5.83     595      0.25
	// feedback messages delivered: 275, drops: 0
}
