package sim

import "testing"

// TestRunScaleSmoke drives a small leaf-spine scenario through the scale
// harness. That the seed engine reads the same on this fabric is
// runtime.TestShardedMatchesReference/leaf-spine.
func TestRunScaleSmoke(t *testing.T) {
	sharded, err := RunScale(ScaleConfig{
		Racks:          50,
		HostsPerRack:   1,
		VMsPerHost:     2,
		Steps:          4,
		Shards:         2,
		Seed:           21,
		DependencyProb: 0.1,
		Threshold:      0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.VMs != 100 || sharded.Racks != 50 {
		t.Fatalf("unexpected shape: %d racks, %d VMs", sharded.Racks, sharded.VMs)
	}
	if sharded.ServerAlerts == 0 {
		t.Fatal("threshold 0.5 raised no server alerts")
	}
	if sharded.MeanStepSeconds <= 0 || sharded.TotalSeconds <= 0 {
		t.Fatal("timing fields not populated")
	}
}

// TestRunScaleLite exercises the lite-traces memory regime end to end.
func TestRunScaleLite(t *testing.T) {
	res, err := RunScale(ScaleConfig{
		Racks:      40,
		VMsPerHost: 2,
		Steps:      3,
		Shards:     3,
		Seed:       5,
		Threshold:  2, // alert-free predict plane
		TraceKind:  "lite",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerAlerts != 0 || res.Migrations != 0 {
		t.Fatalf("threshold 2 should be alert-free, got %d alerts %d migrations", res.ServerAlerts, res.Migrations)
	}
	if res.VMs != 160 {
		t.Fatalf("VMs = %d, want 160", res.VMs)
	}
}
