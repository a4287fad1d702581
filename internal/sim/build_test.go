package sim

import (
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/cost"
	"sheriff/internal/runtime"
	"sheriff/internal/traces"
)

func TestParseKind(t *testing.T) {
	for in, want := range map[string]Kind{
		"fat-tree": FatTree, "FT": FatTree, "bcube": BCube, "BC": BCube, "leaf-spine": LeafSpine, "ls": LeafSpine,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseKind("torus"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBuildRuntimeMatchesBuildCluster(t *testing.T) {
	cfg := RuntimeConfig{Kind: FatTree, Size: 4, Seed: 5}
	rt, err := BuildRuntime(cfg, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Cluster.VMs()) == 0 {
		t.Fatal("BuildRuntime left the cluster empty")
	}
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	// BuildCluster gives the same shape, unpopulated — the restore path.
	cluster, model, err := BuildCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || len(cluster.VMs()) != 0 {
		t.Fatalf("BuildCluster should be empty, has %d VMs", len(cluster.VMs()))
	}
	if got, want := len(cluster.Racks), len(rt.Cluster.Racks); got != want {
		t.Fatalf("rack counts differ: %d vs %d", got, want)
	}
	if _, _, err := BuildCluster(RuntimeConfig{Kind: Kind(99), Size: 4}); err == nil {
		t.Fatal("unknown kind accepted")
	}

	// The model is deferred: building it sweeps no table, and the runtime's
	// first management phase prices exactly as eager tables would.
	if prepared, onDemand := model.SweepCounts(); prepared != 0 || onDemand != 0 {
		t.Fatalf("BuildCluster's model swept %d rows ahead and %d on demand, want none", prepared, onDemand)
	}
	for _, kind := range []Kind{FatTree, BCube} {
		cfg := RuntimeConfig{Kind: kind, Size: 4, Seed: 5, TraceKind: traces.Surge.String()}
		deferred, err := BuildRuntime(cfg, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cluster, _, err := BuildCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		model, err := cost.New(cluster, cost.PaperParams())
		if err != nil {
			t.Fatal(err)
		}
		eager, err := assemble(cluster, model, cfg, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		migrations := 0
		for i := 0; i < 60; i++ {
			got, err := deferred.Step()
			if err != nil {
				t.Fatal(err)
			}
			want, err := eager.Step()
			if err != nil {
				t.Fatal(err)
			}
			got.Timings, want.Timings = runtime.PhaseTimings{}, runtime.PhaseTimings{}
			if *got != *want {
				t.Fatalf("%v step %d over the deferred model: %+v, over cost.New: %+v", kind, i, *got, *want)
			}
			migrations += got.Migrations
		}
		if migrations == 0 {
			t.Fatalf("%v: no migration in 60 surge steps, so no step priced a move", kind)
		}
		deferred.Close()
		eager.Close()
	}
}

// TestBuildRuntimeLeafSpineCalm is the large-fabric shape at toy size:
// closed-form traces and unreachable thresholds leave only the predict
// plane running.
func TestBuildRuntimeLeafSpineCalm(t *testing.T) {
	rt, err := BuildRuntime(RuntimeConfig{Kind: LeafSpine, Size: 40, VMsPerHost: 2, Seed: 5}, runtime.Options{
		Shards:     3,
		Traces:     traces.Options{Kind: traces.Lite},
		Thresholds: alert.Thresholds{CPU: 2, Mem: 2, IO: 2, TRF: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := len(rt.Cluster.VMs()); got != 160 {
		t.Fatalf("VMs = %d, want 160", got)
	}
	for i := 0; i < 3; i++ {
		stats, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		if stats.ServerAlerts != 0 || stats.ToRAlerts != 0 || stats.Migrations != 0 {
			t.Fatalf("step %d: thresholds 2 should be alert-free, got %+v", i, stats)
		}
	}
}
