// Package forecasttest holds what the forecasters' tests share: the
// driver that checks a ForecastFrom against the allocating oracle it
// replaced, the one that calls it concurrently, and the benchmarks'
// series. Only tests import it.
package forecasttest

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

type (
	// Func is a forecaster's ForecastFrom.
	Func func(dst []float64, history *timeseries.Series, h int) ([]float64, error)
	// RefFunc is its oracle's: the allocating form Func replaced.
	RefFunc func(history *timeseries.Series, h int) ([]float64, error)
)

// MatchReference drives got and want over 80 rounds of one history that
// grows, shrinks in place, is replaced by another *Series or has its last
// value rewritten, at horizons 1…8, and fails unless every forecast has
// the oracle's bits. got appends into one reused buffer, handed over with
// a kept prefix of 0…3 values and, every few rounds, too little room.
func MatchReference(t *testing.T, name string, base *timeseries.Series, minLen int, got Func, want RefFunc) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(base.Len())))
	hist := base.Clone()
	var buf []float64
	for round := 0; round < 80; round++ {
		switch op := rng.Intn(8); {
		case op < 4: // the shim's pattern: append
			for k := 1 + rng.Intn(3); k > 0; k-- {
				hist.Append(hist.Last() + rng.NormFloat64())
			}
		case op == 4 && hist.Len() > minLen+5: // shrink, same pointer
			*hist = *hist.Slice(0, hist.Len()-1-rng.Intn(5))
		case op == 5: // another series, same values but one
			next := hist.Clone()
			next.Raw()[rng.Intn(next.Len())] += 0.5
			hist = next
		case op == 6: // rewrite the last value in place
			hist.Raw()[hist.Len()-1] += rng.NormFloat64()
		}
		h := 1 + round%8
		if round%5 == 0 {
			buf = make([]float64, 3, 4)
		}
		keep := rng.Intn(min(4, len(buf)+1))
		dst := buf[:keep]
		prefix := append([]float64(nil), dst...)
		out, err := got(dst, hist, h)
		ref, rerr := want(hist, h)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s round %d: error %v, oracle's %v", name, round, err, rerr)
		}
		if err != nil {
			continue
		}
		if len(out) != keep+h {
			t.Fatalf("%s round %d: %d values after a %d-value prefix, want %d", name, round, len(out)-keep, keep, h)
		}
		for i, v := range prefix {
			if math.Float64bits(out[i]) != math.Float64bits(v) {
				t.Fatalf("%s round %d: prefix value %d rewritten", name, round, i)
			}
		}
		for k := range ref {
			if math.Float64bits(out[keep+k]) != math.Float64bits(ref[k]) {
				t.Fatalf("%s round %d, h=%d: step %d is %v, oracle %v", name, round, h, k+1, out[keep+k], ref[k])
			}
		}
		buf = out
	}
}

// Concurrent calls f from one goroutine per history at once, 50 times
// each into a reused buffer, and fails unless every forecast has the bits
// a lone call on that history gives: a forecaster's scratch is its own
// under its lock. Run it under -race.
func Concurrent(t *testing.T, name string, f Func, histories []*timeseries.Series, h int) {
	t.Helper()
	want := make([][]float64, len(histories))
	for i, hist := range histories {
		fc, err := f(nil, hist, h)
		if err != nil {
			t.Fatalf("%s: history %d: %v", name, i, err)
		}
		want[i] = fc
	}
	var wg sync.WaitGroup
	errs := make([]error, len(histories))
	for i, hist := range histories {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []float64
			for range 50 {
				fc, err := f(buf[:0], hist, h)
				if err != nil {
					errs[i] = err
					return
				}
				for k := range fc {
					if math.Float64bits(fc[k]) != math.Float64bits(want[i][k]) {
						errs[i] = fmt.Errorf("step %d is %v, a lone call gives %v", k+1, fc[k], want[i][k])
						return
					}
				}
				buf = fc
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: history %d: %v", name, i, err)
		}
	}
}

// BenchSeries is the first n samples of the seeded weekly switch-traffic
// trace, 64 samples a day, that the forecasters' benchmarks fit.
func BenchSeries(n int) *timeseries.Series {
	return traces.WeeklyTraffic(traces.TrafficConfig{Days: n/64 + 1, PerDay: 64, Seed: 20150707}).Slice(0, n)
}
