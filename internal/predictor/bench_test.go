package predictor

import (
	"math"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

// benchSeries is a deterministic daily-period workload trace.
func benchSeries(n int) *timeseries.Series {
	return timeseries.FromFunc(n, func(t int) float64 {
		return 0.5 + 0.3*math.Sin(2*math.Pi*float64(t)/24) + 0.05*math.Sin(float64(t)*1.7)
	})
}

// BenchmarkSelectorPredict measures one Predict/Observe cycle of the
// dynamic selection loop after a long accumulated history — the per-VM
// per-period cost of the shim prediction phase. Every candidate forecasts
// into the selector's one buffer from its own scratch, so -benchmem reads
// 0 allocs/op; B/op is the history's amortized growth. Run with a fixed
// iteration count for before/after comparisons (the history keeps
// growing):
//
//	go test -run - -bench BenchmarkSelectorPredict -benchtime 2000x ./internal/predictor/
func BenchmarkSelectorPredict(b *testing.B) {
	train := benchSeries(200)
	var cands []*Candidate
	for _, o := range []arima.Order{{P: 1, D: 1, Q: 1}, {P: 2, D: 1, Q: 2}} {
		m, err := arima.Fit(train, o)
		if err != nil {
			b.Fatal(err)
		}
		cands = append(cands, NewCandidate(o.String(), m))
	}
	hm, err := smoothing.Fit(train, smoothing.Config{Method: smoothing.Holt})
	if err != nil {
		b.Fatal(err)
	}
	cands = append(cands, NewCandidate("Holt", hm))
	sel, err := NewSelector(train, Config{}, cands...)
	if err != nil {
		b.Fatal(err)
	}
	// Accumulate a long history so the per-call cost reflects a
	// long-running shim, then measure steady-state cycles.
	next := func(t int) float64 {
		return 0.5 + 0.3*math.Sin(2*math.Pi*float64(t)/24) + 0.05*math.Sin(float64(t)*1.7)
	}
	t := train.Len()
	for ; t < 4000; t++ {
		if _, err := sel.Predict(); err != nil {
			b.Fatal(err)
		}
		sel.Observe(next(t))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Predict(); err != nil {
			b.Fatal(err)
		}
		sel.Observe(next(t))
		t++
	}
}
