package narnet_test

// The tests that score a network by the paper's rolling one-step protocol,
// run through predictor.Rolling (an external test package, since predictor
// imports narnet).

import (
	"testing"

	"sheriff/internal/narnet"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
)

func TestTrainLearnsSine(t *testing.T) {
	s := narnet.SineSeries(600, 24, 0.5, 1)
	train, test := s.Split(0.7)
	net, err := narnet.Train(train, narnet.Config{Inputs: 8, Hidden: 12, Seed: 1, Epochs: 600})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.Rolling(net, train, test)
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
	net, err := narnet.Train(train, narnet.Config{Inputs: 3, Hidden: 16, Seed: 2, Epochs: 800})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.Rolling(net, train, test)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := timeseries.MSE(test.Raw(), pred)
	if mse > 0.01 {
		t.Errorf("logistic-map MSE = %.5f, want < 0.01", mse)
	}
}
