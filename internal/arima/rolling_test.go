package arima_test

// The tests that score a model by the paper's rolling one-step protocol,
// run through predictor.Rolling (an external test package, since predictor
// imports arima).

import (
	"testing"

	"sheriff/internal/arima"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
)

func TestOneStepBeatsNaiveOnAR1(t *testing.T) {
	s := arima.SimulateARMA(3000, []float64{0.8}, nil, 0, 6)
	train, test := s.Split(0.8)
	m, err := arima.Fit(train, arima.Order{P: 1, D: 0, Q: 0})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.Rolling(m, train, test)
	if err != nil {
		t.Fatal(err)
	}
	mseModel, _ := timeseries.MSE(test.Raw(), pred)
	// Naive forecast: previous value.
	naive := make([]float64, test.Len())
	prev := train.Last()
	for i := 0; i < test.Len(); i++ {
		naive[i] = prev
		prev = test.At(i)
	}
	mseNaive, _ := timeseries.MSE(test.Raw(), naive)
	if mseModel >= mseNaive {
		t.Errorf("AR(1) one-step MSE %.4f should beat naive %.4f", mseModel, mseNaive)
	}
}

func TestAutoFitFindsReasonableModelOnAR2(t *testing.T) {
	s := arima.SimulateARMA(3000, []float64{0.5, 0.3}, nil, 0, 10)
	m, err := arima.AutoFit(s, arima.DefaultSearchSpace)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order.D != 0 {
		t.Errorf("AutoFit chose d=%d for a stationary series", m.Order.D)
	}
	// It should forecast decently.
	train, test := s.Split(0.9)
	pred, err := predictor.Rolling(m, train, test)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := timeseries.MSE(test.Raw(), pred)
	if mse > 2.0 {
		t.Errorf("AutoFit model MSE = %.3f, want near sigma² = 1", mse)
	}
}

func TestSeasonalForecastTracksSeason(t *testing.T) {
	period := 24
	s := arima.SeasonalSeries(600, period, 2)
	train, test := s.Split(0.85)
	o := arima.SeasonalOrder{Order: arima.Order{P: 1, D: 0, Q: 1}, SP: 1, SD: 1, SQ: 0, Period: period}
	m, err := arima.FitSeasonal(train, o)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.Rolling(m, train, test)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := timeseries.MSE(test.Raw(), pred)
	// The seasonal amplitude is 20 (variance 200); residual noise variance
	// is ~1.33. A model that captures the season must land near the noise
	// floor, far below the seasonal variance.
	if mse > 20 {
		t.Fatalf("seasonal model MSE = %.2f, want near the noise floor", mse)
	}
}

func TestSeasonalBeatsPlainARIMAOnSeasonalData(t *testing.T) {
	period := 24
	s := arima.SeasonalSeries(600, period, 3)
	train, test := s.Split(0.85)

	sm, err := arima.FitSeasonal(train, arima.SeasonalOrder{Order: arima.Order{P: 1, D: 0, Q: 1}, SP: 1, SD: 1, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := arima.Fit(train, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	sPred, err := predictor.Rolling(sm, train, test)
	if err != nil {
		t.Fatal(err)
	}
	pPred, err := predictor.Rolling(pm, train, test)
	if err != nil {
		t.Fatal(err)
	}
	sMSE, _ := timeseries.MSE(test.Raw(), sPred)
	pMSE, _ := timeseries.MSE(test.Raw(), pPred)
	if sMSE >= pMSE {
		t.Fatalf("SARIMA MSE %.3f should beat plain ARIMA %.3f on seasonal data", sMSE, pMSE)
	}
}
