package predictor_test

import (
	"fmt"
	"log"

	"sheriff/internal/alert"
	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// ExampleSelector runs the Figs. 6–8 prediction study end to end: fit
// ARIMA(1,1,1) and a NARNET on a weekly switch-traffic trace, run the
// dynamic-selection combined predictor over the test region, and compare
// errors. It finishes with the pre-alert check: does the predicted next
// value cross the threshold?
func ExampleSelector() {
	// Seven days of switch traffic, 64 samples/day (the paper's ~450
	// time units), with daily+weekly periodicity and a nonlinear
	// amplitude envelope.
	trace := traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: 7})
	fmt.Println(traces.Describe("weekly traffic", trace))

	data := trace.Values()
	nTrain := int(0.7 * float64(len(data)))
	train, test := timeseries.New(data[:nTrain]), data[nTrain:]

	// Single models.
	am, err := arima.Fit(train, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		log.Fatal(err)
	}
	nn, err := narnet.Train(train, narnet.Config{Inputs: 16, Hidden: 20, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	aPred, err := am.RollingForecast(train, timeseries.New(test))
	if err != nil {
		log.Fatal(err)
	}
	nPred, err := nn.RollingForecast(train, timeseries.New(test))
	if err != nil {
		log.Fatal(err)
	}
	aMSE, _ := timeseries.MSE(test, aPred)
	nMSE, _ := timeseries.MSE(test, nPred)

	// Combined dynamic selection (Sec. IV.B): at each step the candidate
	// with the lowest sliding-window MSE predicts.
	sel, err := predictor.New(train, predictor.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	combined := make([]float64, len(test))
	for t := range test {
		p, err := sel.Predict()
		if err != nil {
			log.Fatal(err)
		}
		combined[t] = p
		sel.Observe(test[t])
	}
	cMSE, _ := timeseries.MSE(test, combined)

	fmt.Printf("ARIMA(1,1,1)  test MSE: %8.3f\n", aMSE)
	fmt.Printf("NARNET(16,20) test MSE: %8.3f\n", nMSE)
	fmt.Printf("combined      test MSE: %8.3f\n", cMSE)

	// Pre-alert: normalize the prediction into the profile and apply the
	// THRESHOLD rule.
	next, err := sel.Predict()
	if err != nil {
		log.Fatal(err)
	}
	profile := traces.Profile{TRF: next / trace.Max()}
	value, fired := alert.Evaluate(profile, alert.DefaultThresholds())
	fmt.Printf("next predicted traffic %.1f MB (%.0f%% of peak) -> alert=%v (value %.2f)\n",
		next, profile.TRF*100, fired, value)
	// Output:
	// weekly traffic: n=448 mean=46.29 std=17.83 min=6.18 max=86.37
	// ARIMA(1,1,1)  test MSE:    9.253
	// NARNET(16,20) test MSE:   11.321
	// combined      test MSE:    9.750
	// next predicted traffic 33.5 MB (39% of peak) -> alert=false (value 0.00)
}
