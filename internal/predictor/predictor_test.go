package predictor

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

// constantForecaster always predicts the same value.
type constantForecaster struct{ v float64 }

func (c constantForecaster) ForecastFrom(dst []float64, _ *timeseries.Series, h int) ([]float64, error) {
	out := make([]float64, h)
	for i := range out {
		out[i] = c.v
	}
	return append(dst, out...), nil
}

// failingForecaster always errors.
type failingForecaster struct{}

func (failingForecaster) ForecastFrom([]float64, *timeseries.Series, int) ([]float64, error) {
	return nil, errEveryTime
}

var errEveryTime = &forecastErr{}

type forecastErr struct{}

func (*forecastErr) Error() string { return "cannot forecast" }

func TestNewSelectorValidation(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	if _, err := NewSelector(h, Config{}); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewSelector(h, Config{}, &Candidate{Name: "nil"}); err == nil {
		t.Error("nil forecaster accepted")
	}
}

func TestSelectorPicksLowerMSECandidate(t *testing.T) {
	h := timeseries.New([]float64{5, 5, 5})
	good := NewCandidate("good", constantForecaster{5})
	bad := NewCandidate("bad", constantForecaster{100})
	sel, err := NewSelector(h, Config{Window: 5}, bad, good) // bad listed first
	if err != nil {
		t.Fatal(err)
	}
	// First prediction: no errors observed, tie broken by order -> "bad".
	p, err := sel.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if p != 100 || sel.Selection() != "bad" {
		t.Fatalf("first pick = %v (%s), want bad's 100", p, sel.Selection())
	}
	sel.Observe(5)
	// Now bad has error 95², good has error 0 -> good must win.
	p, err = sel.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if p != 5 || sel.Selection() != "good" {
		t.Fatalf("second pick = %v (%s), want good's 5", p, sel.Selection())
	}
}

func TestSelectorSkipsFailingCandidate(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	sel, err := NewSelector(h, Config{},
		NewCandidate("fail", failingForecaster{}),
		NewCandidate("ok", constantForecaster{7}))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sel.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if p != 7 {
		t.Fatalf("Predict = %v, want 7", p)
	}
}

func TestSelectorAllFail(t *testing.T) {
	h := timeseries.New([]float64{1})
	sel, err := NewSelector(h, Config{}, NewCandidate("f", failingForecaster{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Predict(); err == nil {
		t.Fatal("expected error when all candidates fail")
	}
}

func TestObserveExtendsHistory(t *testing.T) {
	h := timeseries.New([]float64{1, 2})
	sel, _ := NewSelector(h, Config{}, NewCandidate("c", constantForecaster{0}))
	sel.Observe(3)
	got := sel.History()
	if got.Len() != 3 || got.Last() != 3 {
		t.Fatalf("history = %v", got.Values())
	}
}

func TestRunWinShares(t *testing.T) {
	h := timeseries.New([]float64{5, 5, 5})
	sel, _ := NewSelector(h, Config{Window: 3},
		NewCandidate("a", constantForecaster{5}),
		NewCandidate("b", constantForecaster{50}))
	test := timeseries.New([]float64{5, 5, 5, 5, 5, 5})
	pred, shares, err := sel.Run(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 6 {
		t.Fatalf("pred len = %d", len(pred))
	}
	// "a" should win everything after the first (tie-broken) step.
	if shares["a"] < 0.8 {
		t.Fatalf("winShare[a] = %v, want >= 0.8", shares["a"])
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("win shares sum to %v, want 1", total)
	}
}

// hybridSeries is linear AR(1) in its first half and a nonlinear map in
// its second half, so ARIMA should win early and NARNET late.
func hybridSeries(n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	data[0] = 0.3
	for t := 1; t < n/2; t++ {
		data[t] = 0.7*data[t-1] + 0.05*rng.NormFloat64() + 0.15
	}
	for t := n / 2; t < n; t++ {
		data[t] = 3.7 * data[t-1] * (1 - data[t-1])
		if data[t] <= 0 || data[t] >= 1 {
			data[t] = 0.5
		}
	}
	return timeseries.New(data)
}

func TestCombinedBeatsWorstSingleModel(t *testing.T) {
	s := hybridSeries(700, 3)
	train, test := s.Split(0.4) // training covers only the linear regime
	am, err := arima.Fit(train, arima.Order{P: 1, D: 0, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := narnet.Train(train, narnet.Config{Inputs: 4, Hidden: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Individual rolling forecasts.
	ap, err := am.RollingForecast(train, test)
	if err != nil {
		t.Fatal(err)
	}
	np, err := nn.RollingForecast(train, test)
	if err != nil {
		t.Fatal(err)
	}
	aMSE, _ := timeseries.MSE(test.Raw(), ap)
	nMSE, _ := timeseries.MSE(test.Raw(), np)

	sel, err := NewSelector(train, Config{Window: 10},
		NewCandidate("arima", am), NewCandidate("narnet", nn))
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := sel.Run(test)
	if err != nil {
		t.Fatal(err)
	}
	cMSE, _ := timeseries.MSE(test.Raw(), cp)

	worst := math.Max(aMSE, nMSE)
	if cMSE > worst {
		t.Errorf("combined MSE %.5f worse than worst single model %.5f (arima %.5f, narnet %.5f)",
			cMSE, worst, aMSE, nMSE)
	}
}

func TestDefaultPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := timeseries.FromFunc(400, func(t int) float64 {
		return 50 + 20*math.Sin(float64(t)/10) + rng.NormFloat64()
	})
	pool, err := defaultPool(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) < 3 {
		t.Fatalf("defaultPool size = %d, want >= 3 of 4 candidates", len(pool))
	}
	names := map[string]bool{}
	for _, c := range pool {
		names[c.Name] = true
	}
	if !names["ARIMA(1,1,1)"] {
		t.Errorf("pool missing ARIMA(1,1,1): %v", names)
	}
}

func TestDefaultPoolTooShort(t *testing.T) {
	if _, err := defaultPool(timeseries.New([]float64{1, 2}), 1); err == nil {
		t.Fatal("expected error on tiny series")
	}
}

func TestCandidateMSEBeforeObservation(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	c := NewCandidate("c", constantForecaster{1})
	if _, err := NewSelector(h, Config{}, c); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(c.MSE(), 1) {
		t.Fatalf("unobserved candidate MSE = %v, want +Inf", c.MSE())
	}
	c.Observe(2)
	if c.MSE() != 4 {
		t.Fatalf("MSE = %v, want 4", c.MSE())
	}
}

func TestExtendedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := timeseries.FromFunc(400, func(tt int) float64 {
		return 50 + 20*math.Sin(2*math.Pi*float64(tt)/24) + rng.NormFloat64()
	})
	pool, err := extendedPool(s, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range pool {
		names[c.Name] = true
	}
	if !names["Holt"] || !names["HoltWinters[24]"] {
		t.Fatalf("smoothing candidates missing: %v", names)
	}
	if len(pool) < 5 {
		t.Fatalf("pool size = %d, want >= 5", len(pool))
	}
	// The extended pool must run end-to-end through a selector.
	train, test := s.Split(0.9)
	pool2, err := extendedPool(train, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelector(train, Config{Window: 10}, pool2...)
	if err != nil {
		t.Fatal(err)
	}
	pred, _, err := sel.Run(test)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := timeseries.MSE(test.Raw(), pred)
	if mse > 25 {
		t.Fatalf("extended-pool MSE = %.3f, suspiciously bad", mse)
	}

	// New builds the same family with the season auto-detected.
	sel, err = New(train, Options{Pool: PoolExtended, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := sel.Predict(); err != nil || math.IsNaN(p) {
		t.Fatalf("New(PoolExtended).Predict = %v, %v", p, err)
	}
	if len(sel.Candidates()) < 5 {
		t.Fatalf("New(PoolExtended) pool size = %d, want >= 5", len(sel.Candidates()))
	}
}

func TestExtendedPoolNoSeason(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := timeseries.FromFunc(300, func(int) float64 { return 10 + rng.NormFloat64() })
	pool, err := extendedPool(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pool {
		if c.Name == "HoltWinters[0]" {
			t.Fatal("seasonal candidate created without a period")
		}
	}
}

func TestPredictK(t *testing.T) {
	h := timeseries.New([]float64{5, 5, 5})
	sel, err := NewSelector(h, Config{Window: 3},
		NewCandidate("a", constantForecaster{5}),
		NewCandidate("b", constantForecaster{50}))
	if err != nil {
		t.Fatal(err)
	}
	fc, name, err := sel.PredictK(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 4 {
		t.Fatalf("len = %d", len(fc))
	}
	// Ties break to the first candidate before any observation.
	if fc[0] != 5 || name != "a" {
		t.Fatalf("PredictK = %v (%s), want candidate a's 5", fc[0], name)
	}
	if _, _, err := sel.PredictK(0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestPredictKFallsBackOnFailure(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	sel, err := NewSelector(h, Config{},
		NewCandidate("fail", failingForecaster{}),
		NewCandidate("ok", constantForecaster{7}))
	if err != nil {
		t.Fatal(err)
	}
	fc, name, err := sel.PredictK(2)
	if err != nil {
		t.Fatal(err)
	}
	if fc[0] != 7 || fc[1] != 7 {
		t.Fatalf("fallback forecast = %v", fc)
	}
	if name != "ok" {
		t.Fatalf("PredictK reported %q, want the candidate actually used (ok)", name)
	}
}

func TestPredictKEmptyPool(t *testing.T) {
	var sel Selector // zero value: no candidates
	if _, _, err := sel.PredictK(3); err == nil {
		t.Fatal("empty-pool PredictK succeeded")
	}
}

func TestPredictKOrdersFallbackByMSE(t *testing.T) {
	h := timeseries.New([]float64{5, 5, 5})
	// Pool order: fail, far, near. After observations, "near" has the
	// lower MSE, so the fallback must pick it even though "far" comes
	// first in the pool.
	sel, err := NewSelector(h, Config{Window: 5},
		NewCandidate("fail", failingForecaster{}),
		NewCandidate("far", constantForecaster{50}),
		NewCandidate("near", constantForecaster{6}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sel.Predict(); err != nil {
			t.Fatal(err)
		}
		sel.Observe(5)
	}
	fc, name, err := sel.PredictK(2)
	if err != nil {
		t.Fatal(err)
	}
	if name != "near" || fc[0] != 6 {
		t.Fatalf("PredictK used %q (%v), want lowest-MSE candidate near", name, fc[0])
	}
}

func TestPredictKAllFailWrapsError(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	sel, err := NewSelector(h, Config{}, NewCandidate("f", failingForecaster{}))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sel.PredictK(2)
	if err == nil {
		t.Fatal("expected error when every candidate fails")
	}
	if !errors.Is(err, errEveryTime) {
		t.Fatalf("error %v does not wrap the underlying forecast error", err)
	}
}

func TestObserveSkipsFailedForecasts(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	fail := NewCandidate("fail", failingForecaster{})
	ok := NewCandidate("ok", constantForecaster{7})
	sel, err := NewSelector(h, Config{Window: 5}, fail, ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Predict(); err != nil {
		t.Fatal(err)
	}
	sel.Observe(7)
	// The failing candidate produced no prediction, so its fitness must
	// stay unobserved (+Inf), not be polluted by a NaN error.
	if !math.IsInf(fail.MSE(), 1) {
		t.Fatalf("failed candidate MSE = %v, want +Inf", fail.MSE())
	}
	if ok.MSE() != 0 {
		t.Fatalf("ok candidate MSE = %v, want 0", ok.MSE())
	}
}

func TestSelectionEmptyUntilSuccess(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	sel, err := NewSelector(h, Config{},
		NewCandidate("a", constantForecaster{1}),
		NewCandidate("b", constantForecaster{2}))
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Selection(); got != "" {
		t.Fatalf("Selection before any Predict = %q, want \"\"", got)
	}
	if _, err := sel.Predict(); err != nil {
		t.Fatal(err)
	}
	if got := sel.Selection(); got != "a" {
		t.Fatalf("Selection after Predict = %q, want a", got)
	}
}

func TestSelectionResetAfterFailedPredict(t *testing.T) {
	h := timeseries.New([]float64{1, 2, 3})
	flaky := &switchableForecaster{v: 4}
	sel, err := NewSelector(h, Config{}, NewCandidate("flaky", flaky))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Predict(); err != nil {
		t.Fatal(err)
	}
	if sel.Selection() != "flaky" {
		t.Fatalf("Selection = %q", sel.Selection())
	}
	sel.Observe(4)
	flaky.broken = true
	if _, err := sel.Predict(); err == nil {
		t.Fatal("expected failure")
	}
	if got := sel.Selection(); got != "" {
		t.Fatalf("Selection after failed Predict = %q, want \"\"", got)
	}
}

// switchableForecaster forecasts a constant until broken.
type switchableForecaster struct {
	v      float64
	broken bool
}

func (s *switchableForecaster) ForecastFrom(dst []float64, _ *timeseries.Series, h int) ([]float64, error) {
	if s.broken {
		return nil, errEveryTime
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = s.v
	}
	return append(dst, out...), nil
}

// TestIncrementalForecastMatchesCold drives one fitted model of each
// family incrementally (ForecastFrom after every append to one shared
// Series) and compares against a cold call on a fresh copy of the same
// history. The incremental caches must be bit-exact with recomputation.
func TestIncrementalForecastMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	train := timeseries.FromFunc(300, func(tt int) float64 {
		return 50 + 20*math.Sin(2*math.Pi*float64(tt)/24) + rng.NormFloat64()
	})
	am, err := arima.Fit(train, arima.Order{P: 2, D: 1, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	nn, err := narnet.Train(train, narnet.Config{Inputs: 8, Hidden: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hm, err := smoothing.Fit(train, smoothing.Config{Method: smoothing.HoltWinters, Period: 24})
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name string
		f    Forecaster
	}{{"arima", am}, {"narnet", nn}, {"holtwinters", hm}}

	hist := train.Clone()
	for step := 0; step < 40; step++ {
		for _, m := range models {
			warm, err := m.f.ForecastFrom(nil, hist, 3)
			if err != nil {
				t.Fatalf("%s warm step %d: %v", m.name, step, err)
			}
			cold, err := m.f.ForecastFrom(nil, hist.Clone(), 3)
			if err != nil {
				t.Fatalf("%s cold step %d: %v", m.name, step, err)
			}
			for k := range warm {
				if warm[k] != cold[k] {
					t.Fatalf("%s step %d horizon %d: warm %v != cold %v",
						m.name, step, k, warm[k], cold[k])
				}
			}
		}
		next := 50 + 20*math.Sin(2*math.Pi*float64(300+step)/24) + rng.NormFloat64()
		hist.Append(next)
	}
}

// TestSelectorSteadyStateAllocs: a warm Predict+Observe cycle of the
// paper's default pool allocates nothing — every candidate forecasts into
// the selector's one buffer. Observe's append to the history grows it on
// append's schedule, which 500 runs amortize to nothing.
func TestSelectorSteadyStateAllocs(t *testing.T) {
	s, err := New(benchSeries(200), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Candidates()); n != 4 {
		t.Fatalf("default pool has %d candidates, want 4", n)
	}
	step := 200
	cycle := func() {
		if _, err := s.Predict(); err != nil {
			t.Fatal(err)
		}
		s.Observe(0.5 + 0.3*math.Sin(2*math.Pi*float64(step)/24) + 0.05*math.Sin(float64(step)*1.7))
		step++
	}
	for range 50 {
		cycle()
	}
	if got := testing.AllocsPerRun(500, cycle); got != 0 {
		t.Fatalf("a warm Predict+Observe allocates %v times, want 0", got)
	}
}
