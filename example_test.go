package sheriff_test

import (
	"fmt"
	"log"

	"sheriff"
)

// ExampleEvaluateAlert shows the Sec. IV.C ALERT rule: the alert fires
// when any profile component exceeds its threshold, and its value is the
// profile maximum.
func ExampleEvaluateAlert() {
	profile := sheriff.Profile{CPU: 0.93, Mem: 0.70, IO: 0.40, TRF: 0.55}
	value, fired := sheriff.EvaluateAlert(profile, sheriff.DefaultThresholds())
	fmt.Printf("fired=%v value=%.2f\n", fired, value)

	quiet := sheriff.Profile{CPU: 0.50, Mem: 0.50, IO: 0.50, TRF: 0.50}
	_, fired = sheriff.EvaluateAlert(quiet, sheriff.DefaultThresholds())
	fmt.Printf("fired=%v\n", fired)
	// Output:
	// fired=true value=0.93
	// fired=false
}

// ExampleNewFatTreeCluster builds the management substrate: a Fat-Tree
// cluster with one shim per rack.
func ExampleNewFatTreeCluster() {
	cluster, _, shims, err := sheriff.NewFatTreeCluster(4, 2, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("racks=%d hosts=%d shims=%d\n",
		len(cluster.Racks), len(cluster.Hosts()), len(shims))
	// Output:
	// racks=8 hosts=16 shims=8
}

// ExampleShim_ProcessAlerts runs one management round: a host alert is
// turned into a PRIORITY selection and a matched migration.
func ExampleShim_ProcessAlerts() {
	cluster, _, shims, err := sheriff.NewFatTreeCluster(4, 2, 100)
	if err != nil {
		log.Fatal(err)
	}
	hot := cluster.Racks[0].Hosts[0]
	for i := 0; i < 4; i++ {
		if _, err := cluster.AddVM(hot, 20, float64(i+1), false); err != nil {
			log.Fatal(err)
		}
	}
	report, err := shims[0].ProcessAlerts([]sheriff.Alert{{HostID: hot.ID, Value: 0.95}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrations=%d cost=%.0f\n", len(report.Migrations), report.TotalCost)
	// Output:
	// migrations=1 cost=100
}
