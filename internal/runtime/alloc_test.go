package runtime

import (
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/dcn"
)

// TestStepSteadyStateAllocs gates the sharded predict phase at zero heap
// allocations per step once warm: the per-rack alert buckets, the shard
// round-trip, and the Holt folds all reuse state — and, with DeepPredict
// on and every rack's pool fitted, so does each rack's Predict+Observe
// round, whose candidates forecast into their selector's buffer. Thresholds
// are set so low that every VM alerts every step, keeping the bucket
// high-water marks constant across runs. A deep pool's history grows by
// one value a step on append's schedule, which the deep variant's 500 runs
// amortize to nothing.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		runs int
	}{
		{"holt", Options{}, 50},
		{"deep", Options{DeepPredict: true, DeepFitAfter: 24}, 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			cluster, model := buildParts(t, 4)
			cluster.Populate(dcn.PopulateOptions{VMsPerHost: 3, MinCapacity: 5, MaxCapacity: 20, DependencyProb: 0.5, CrossRackDependencyProb: 0.4, Seed: 9})
			opts := c.opts
			opts.Seed, opts.Shards = 9, 4
			opts.Thresholds = alert.Thresholds{CPU: 1e-12, Mem: 1e-12, IO: 1e-12, TRF: 1e-12}
			r, err := New(cluster, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Warm until every append capacity has reached its steady
			// state, and every deep pool is fitted and has forecast.
			for i := 0; i < opts.DeepFitAfter+10; i++ {
				if _, err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if opts.DeepPredict {
				for rk := range cluster.Racks {
					if !r.DeepReady(rk) {
						t.Fatalf("rack %d has no fitted deep pool after warm-up", rk)
					}
				}
			}

			var stats StepStats
			allocs := testing.AllocsPerRun(c.runs, func() {
				stats = StepStats{}
				r.shardedPredictPhase(&stats, r.opts.Recorder, false)
			})
			if allocs != 0 {
				t.Fatalf("sharded predict phase allocates %.1f objects/step in steady state, want 0", allocs)
			}
			if stats.ServerAlerts == 0 {
				t.Fatal("gate ran without raising any alerts — thresholds did not bite")
			}
		})
	}
}
