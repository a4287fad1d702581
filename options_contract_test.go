package sheriff

import (
	"testing"

	"sheriff/internal/faults"
	"sheriff/internal/migrate"
	"sheriff/internal/predictor"
	"sheriff/internal/runtime"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// TestOptionsContract sweeps the library's option structs through the
// shared convention: Validate rejects negative values, zero values mean
// "use the default" (filled in by WithDefaults), and explicitly set
// fields survive WithDefaults untouched.
func TestOptionsContract(t *testing.T) {
	cases := []struct {
		name string
		// negative is a struct with a nonsensical field; its Validate
		// must error.
		negative func() error
		// zeroOK: the zero struct must validate.
		zeroOK func() error
		// defaulted checks WithDefaults fills a zero field; returns
		// (got, want) of one representative default.
		defaulted func() (any, any)
		// preserved checks WithDefaults keeps a set field; returns
		// (got, want).
		preserved func() (any, any)
	}{
		{
			name:     "migrate.Params",
			negative: func() error { return migrate.Params{Alpha: -0.5}.Validate() },
			zeroOK:   func() error { return migrate.Params{}.Validate() },
			defaulted: func() (any, any) {
				return migrate.Params{}.WithDefaults().Alpha, migrate.DefaultParams().Alpha
			},
			preserved: func() (any, any) {
				return migrate.Params{Alpha: 0.4}.WithDefaults().Alpha, 0.4
			},
		},
		{
			name:     "migrate.DistOptions",
			negative: func() error { return migrate.DistOptions{MaxRounds: -2}.Validate() },
			zeroOK:   func() error { return migrate.DistOptions{}.Validate() },
			defaulted: func() (any, any) {
				return migrate.DistOptions{}.WithDefaults().MaxRounds, 30
			},
			preserved: func() (any, any) {
				return migrate.DistOptions{MaxRounds: 9}.WithDefaults().MaxRounds, 9
			},
		},
		{
			name:     "runtime.Options",
			negative: func() error { return runtime.Options{DeepFitAfter: -1}.Validate() },
			zeroOK:   func() error { return runtime.Options{}.Validate() },
			defaulted: func() (any, any) {
				return runtime.Options{}.WithDefaults().DeepFitAfter, 48
			},
			preserved: func() (any, any) {
				return runtime.Options{DeepFitAfter: 12}.WithDefaults().DeepFitAfter, 12
			},
		},
		{
			name:     "faults.Plan",
			negative: func() error { return faults.Plan{Drop: -0.1}.Validate() },
			zeroOK:   func() error { return faults.Plan{}.Validate() },
			defaulted: func() (any, any) {
				p := faults.Plan{Partitions: []faults.Partition{{Nodes: []int{0}}}}
				return p.WithDefaults().Partitions[0].Rounds, 1
			},
			preserved: func() (any, any) {
				p := faults.Plan{Partitions: []faults.Partition{{Rounds: 5, Nodes: []int{0}}}}
				return p.WithDefaults().Partitions[0].Rounds, 5
			},
		},
		{
			name:     "PredictorOptions",
			negative: func() error { return predictor.Options{Window: -3}.Validate() },
			zeroOK:   func() error { return predictor.Options{}.Validate() },
			defaulted: func() (any, any) {
				return predictor.Options{}.WithDefaults().Window, 20
			},
			preserved: func() (any, any) {
				return predictor.Options{Window: 11}.WithDefaults().Window, 11
			},
		},
		{
			name:     "TraceOptions",
			negative: func() error { return traces.Options{Hours: -1}.Validate() },
			zeroOK:   func() error { return traces.Options{}.Validate() },
			defaulted: func() (any, any) {
				return traces.Options{}.WithDefaults().Hours, 24
			},
			preserved: func() (any, any) {
				return traces.Options{Hours: 6}.WithDefaults().Hours, 6
			},
		},
		{
			name:     "traces.SurgeParams",
			negative: func() error { return traces.SurgeParams{MeanDwell: -2}.Validate() },
			zeroOK:   func() error { return traces.SurgeParams{}.Validate() },
			defaulted: func() (any, any) {
				return traces.SurgeParams{}.WithDefaults().MeanDwell, 45
			},
			preserved: func() (any, any) {
				return traces.SurgeParams{MeanDwell: 9}.WithDefaults().MeanDwell, 9
			},
		},
		{
			name:     "BurstConfig",
			negative: func() error { return predictor.BurstConfig{Hold: -1}.Validate() },
			zeroOK:   func() error { return predictor.BurstConfig{}.Validate() },
			defaulted: func() (any, any) {
				return predictor.BurstConfig{}.WithDefaults().Hold, 30
			},
			preserved: func() (any, any) {
				return predictor.BurstConfig{Hold: 5}.WithDefaults().Hold, 5
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.negative(); err == nil {
				t.Error("negative value passed Validate")
			}
			if err := tc.zeroOK(); err != nil {
				t.Errorf("zero value failed Validate: %v", err)
			}
			if got, want := tc.defaulted(); got != want {
				t.Errorf("WithDefaults left zero field at %v, want %v", got, want)
			}
			if got, want := tc.preserved(); got != want {
				t.Errorf("WithDefaults overwrote set field: got %v, want %v", got, want)
			}
		})
	}
}

// TestPredictorOptionsRejected pins that the consolidated constructor
// actually routes through Validate.
func TestPredictorOptionsRejected(t *testing.T) {
	data := timeseries.New([]float64{1, 2, 3})
	if _, err := predictor.New(data, predictor.Options{Period: -1}); err == nil {
		t.Fatal("predictor.New accepted a negative period")
	}
	if _, err := predictor.New(data, predictor.Options{Pool: predictor.PoolKind(99)}); err == nil {
		t.Fatal("predictor.New accepted an unknown pool kind")
	}
}
