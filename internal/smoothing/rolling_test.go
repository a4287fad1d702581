package smoothing_test

// The tests that score a model by the paper's rolling one-step protocol,
// run through predictor.Rolling (an external test package, since predictor
// imports smoothing).

import (
	"math"
	"math/rand"
	"testing"

	"sheriff/internal/predictor"
	"sheriff/internal/smoothing"
	"sheriff/internal/timeseries"
)

func TestHoltWintersTracksSeason(t *testing.T) {
	period := 12
	rng := rand.New(rand.NewSource(1))
	s := timeseries.FromFunc(240, func(t int) float64 {
		return 50 + 0.1*float64(t) + 8*math.Sin(2*math.Pi*float64(t)/float64(period)) + 0.3*rng.NormFloat64()
	})
	train, test := s.Split(0.8)
	m, err := smoothing.Fit(train, smoothing.Config{Method: smoothing.HoltWinters, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.Rolling(m, train, test)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := timeseries.MSE(test.Raw(), pred)
	if mse > 2 {
		t.Fatalf("Holt-Winters MSE = %.3f on a clean seasonal series", mse)
	}
	// Multi-step forecasts must keep the seasonal phase.
	fc, err := m.ForecastFrom(nil, train, period)
	if err != nil {
		t.Fatal(err)
	}
	n := train.Len()
	for k, v := range fc {
		want := 50 + 0.1*float64(n+k) + 8*math.Sin(2*math.Pi*float64(n+k)/float64(period))
		if math.Abs(v-want) > 3 {
			t.Fatalf("HW forecast[%d] = %.2f, want ≈ %.2f", k, v, want)
		}
	}
}

func TestHoltWintersBeatsSESOnSeasonalData(t *testing.T) {
	period := 24
	rng := rand.New(rand.NewSource(2))
	s := timeseries.FromFunc(360, func(t int) float64 {
		return 30 + 10*math.Sin(2*math.Pi*float64(t)/float64(period)) + rng.NormFloat64()
	})
	train, test := s.Split(0.8)
	hw, err := smoothing.Fit(train, smoothing.Config{Method: smoothing.HoltWinters, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	ses, err := smoothing.Fit(train, smoothing.Config{Method: smoothing.SES})
	if err != nil {
		t.Fatal(err)
	}
	hwPred, err := predictor.Rolling(hw, train, test)
	if err != nil {
		t.Fatal(err)
	}
	sesPred, err := predictor.Rolling(ses, train, test)
	if err != nil {
		t.Fatal(err)
	}
	hwMSE, _ := timeseries.MSE(test.Raw(), hwPred)
	sesMSE, _ := timeseries.MSE(test.Raw(), sesPred)
	if hwMSE >= sesMSE {
		t.Fatalf("HW MSE %.3f should beat SES %.3f on seasonal data", hwMSE, sesMSE)
	}
}
