package narnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sheriff/internal/timeseries"
)

func sineSeries(n int, period float64, noise float64, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	return timeseries.FromFunc(n, func(t int) float64 {
		return 50 + 30*math.Sin(2*math.Pi*float64(t)/period) + noise*rng.NormFloat64()
	})
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Inputs: 0, Hidden: 3}).Validate(); err == nil {
		t.Error("zero inputs accepted")
	}
	if err := (Config{Inputs: 3, Hidden: 0}).Validate(); err == nil {
		t.Error("zero hidden accepted")
	}
	if err := (Config{Inputs: 3, Hidden: 5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestTrainTooShort(t *testing.T) {
	if _, err := Train(timeseries.New([]float64{1, 2, 3}), Config{Inputs: 4, Hidden: 2}); err == nil {
		t.Fatal("expected error on short series")
	}
}

func TestTrainLearnsSine(t *testing.T) {
	s := sineSeries(600, 24, 0.5, 1)
	train, test := s.Split(0.7)
	net, err := Train(train, Config{Inputs: 8, Hidden: 12, Seed: 1, Epochs: 600})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := net.RollingForecast(train, test)
	if err != nil {
		t.Fatal(err)
	}
	rmse, _ := timeseries.RMSE(test.Raw(), pred)
	// Signal amplitude is 30; a trained net should have RMSE well under 5.
	if rmse > 5 {
		t.Errorf("sine RMSE = %.3f, want < 5", rmse)
	}
}

func TestTrainLearnsNonlinearMap(t *testing.T) {
	// Logistic-style map: clearly nonlinear, where a linear AR struggles.
	data := make([]float64, 500)
	data[0] = 0.4
	for t := 1; t < len(data); t++ {
		data[t] = 3.6 * data[t-1] * (1 - data[t-1])
	}
	s := timeseries.New(data)
	train, test := s.Split(0.8)
	net, err := Train(train, Config{Inputs: 3, Hidden: 16, Seed: 2, Epochs: 800})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := net.RollingForecast(train, test)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := timeseries.MSE(test.Raw(), pred)
	if mse > 0.01 {
		t.Errorf("logistic-map MSE = %.5f, want < 0.01", mse)
	}
}

func TestForecastHorizonValidation(t *testing.T) {
	s := sineSeries(200, 20, 0, 3)
	net, err := Train(s, Config{Inputs: 4, Hidden: 4, Seed: 3, Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Forecast(0); err == nil {
		t.Error("zero horizon should error")
	}
	if _, err := net.ForecastFrom(nil, timeseries.New([]float64{1}), 1); err == nil {
		t.Error("short history should error")
	}
}

func TestForecastStaysInTrainingRange(t *testing.T) {
	// Closed-loop forecasts of a bounded series should not explode.
	s := sineSeries(400, 30, 1, 4)
	net, err := Train(s, Config{Inputs: 6, Hidden: 10, Seed: 4, Epochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := net.Forecast(100)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Min()-30, s.Max()+30
	for k, v := range fc {
		if math.IsNaN(v) || v < lo || v > hi {
			t.Fatalf("closed-loop forecast diverged at step %d: %v", k, v)
		}
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	s := sineSeries(300, 24, 0.5, 5)
	cfg := Config{Inputs: 5, Hidden: 8, Seed: 42, Epochs: 100}
	n1, err := Train(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Train(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := n1.Forecast(5)
	f2, _ := n2.Forecast(5)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("same seed produced different forecasts: %v vs %v", f1, f2)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s := sineSeries(300, 24, 2, 6)
	n1, err := Train(s, Config{Inputs: 5, Hidden: 8, Seed: 1, Epochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Train(s, Config{Inputs: 5, Hidden: 8, Seed: 2, Epochs: 30})
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := n1.Forecast(1)
	f2, _ := n2.Forecast(1)
	if f1[0] == f2[0] {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestMakeDataset(t *testing.T) {
	s := timeseries.New([]float64{1, 2, 3, 4, 5})
	x, y := makeDataset(s, 2)
	if len(x) != 3 || len(y) != 3 {
		t.Fatalf("dataset sizes %d/%d, want 3/3", len(x), len(y))
	}
	// Row 0: target Y_2 = 3, inputs [Y_1, Y_0] = [2, 1].
	if y[0] != 3 || x[0][0] != 2 || x[0][1] != 1 {
		t.Fatalf("row 0 = %v -> %v", x[0], y[0])
	}
	if y[2] != 5 || x[2][0] != 4 || x[2][1] != 3 {
		t.Fatalf("row 2 = %v -> %v", x[2], y[2])
	}
}

func TestTrainMSEDecreases(t *testing.T) {
	s := sineSeries(400, 24, 0.5, 7)
	short, err := Train(s, Config{Inputs: 6, Hidden: 10, Seed: 7, Epochs: 5, Patience: 1000})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Train(s, Config{Inputs: 6, Hidden: 10, Seed: 7, Epochs: 400, Patience: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if long.TrainMSE() >= short.TrainMSE() {
		t.Errorf("more epochs did not reduce train MSE: %v -> %v", short.TrainMSE(), long.TrainMSE())
	}
}

func TestConfigAccessor(t *testing.T) {
	s := sineSeries(200, 24, 0, 8)
	net, err := Train(s, Config{Inputs: 4, Hidden: 6, Seed: 8, Epochs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Config(); got.Inputs != 4 || got.Hidden != 6 {
		t.Fatalf("Config = %+v", got)
	}
}

// Property: forecasts are finite for any valid seed and small architecture.
func TestForecastFiniteProperty(t *testing.T) {
	s := sineSeries(250, 20, 1, 9)
	f := func(seed int64, niRaw, nhRaw uint8) bool {
		ni := int(niRaw%6) + 1
		nh := int(nhRaw%8) + 1
		net, err := Train(s, Config{Inputs: ni, Hidden: nh, Seed: seed, Epochs: 40})
		if err != nil {
			return false
		}
		fc, err := net.Forecast(10)
		if err != nil {
			return false
		}
		for _, v := range fc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRPROPStepSizesAdapt(t *testing.T) {
	r := newRPROP(1)
	w1 := []float64{0}
	w2 := []float64{}
	// Same gradient sign twice: step grows.
	r.step([]float64{1}, w1, w2)
	d1 := r.delta[0]
	r.step([]float64{1}, w1, w2)
	if r.delta[0] <= d1 {
		t.Errorf("delta should grow on same sign: %v -> %v", d1, r.delta[0])
	}
	// Sign flip: step shrinks.
	dBefore := r.delta[0]
	r.step([]float64{-1}, w1, w2)
	if r.delta[0] >= dBefore {
		t.Errorf("delta should shrink on sign flip: %v -> %v", dBefore, r.delta[0])
	}
}

func TestRPROPBoundsRespected(t *testing.T) {
	r := newRPROP(1)
	w1 := []float64{0}
	for i := 0; i < 200; i++ {
		r.step([]float64{1}, w1, nil)
	}
	if r.delta[0] > rpropDeltaMax {
		t.Errorf("delta exceeded max: %v", r.delta[0])
	}
	for i := 0; i < 400; i++ {
		g := 1.0
		if i%2 == 0 {
			g = -1
		}
		r.step([]float64{g}, w1, nil)
	}
	if r.delta[0] < rpropDeltaMin {
		t.Errorf("delta under min: %v", r.delta[0])
	}
}

// TestForecastFromSteadyStateAllocs: a warm forecast into a reused dst
// allocates nothing, also when the history grew since the last one — the
// closed loop runs on the copy the lineState keeps. The history is given
// room first, so that its own appends allocate nothing either.
func TestForecastFromSteadyStateAllocs(t *testing.T) {
	const runs = 100
	s := sineSeries(200, 24, 0.3, 1)
	n, err := Train(s, Config{Inputs: 8, Hidden: 20, Seed: 1, Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	hist := s.Clone()
	next := func() { hist.Append(hist.At(hist.Len() - 24)) } // a period back
	for cap(hist.Raw())-hist.Len() <= runs {
		next()
	}
	dst, err := n.ForecastFrom(nil, hist, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(runs, func() {
		next()
		if dst, err = n.ForecastFrom(dst[:0], hist, 4); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("a warm ForecastFrom allocates %v times, want 0", got)
	}
}
