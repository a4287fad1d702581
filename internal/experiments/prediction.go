package experiments

import (
	"fmt"

	"sheriff/internal/arima"
	"sheriff/internal/narnet"
	"sheriff/internal/predictor"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// trafficTrace is the shared Fig. 5/6/7/8 series: 7 days × 64 samples,
// matching the ~450 time units of the paper's plots.
func trafficTrace(seed int64) *timeseries.Series {
	return traces.WeeklyTraffic(traces.TrafficConfig{Days: 7, PerDay: 64, Seed: seed})
}

// Fig3RawCPU regenerates Fig. 3 (raw CPU utilization, 24 h): one row per
// sample with the hour and utilization percent.
func Fig3RawCPU(seed int64) (*Table, error) {
	s := traces.CPU(traces.CPUConfig{Hours: 24, Seed: seed})
	t := &Table{
		Name:    "Fig. 3",
		Title:   "Raw data of CPU utility (synthetic diurnal trace, percent)",
		Columns: []string{"hour", "cpu_pct"},
		Notes:   []string{traces.Describe("cpu", s), "substitute for the ZopleCloud VM CPU trace (DESIGN.md §5)"},
	}
	// Downsample to one row per 10 minutes to keep the table readable.
	for i := 0; i < s.Len(); i += 10 {
		t.AddRow(float64(i)/float64(traces.SamplesPerHour), s.At(i))
	}
	return t, nil
}

// Fig4RawIO regenerates Fig. 4 (raw disk I/O rate, MB).
func Fig4RawIO(seed int64) (*Table, error) {
	s := traces.DiskIO(traces.DiskIOConfig{Hours: 24, Seed: seed})
	t := &Table{
		Name:    "Fig. 4",
		Title:   "Raw data of disk I/O rate (synthetic bursty trace, MB)",
		Columns: []string{"hour", "io_mb"},
		Notes:   []string{traces.Describe("io", s)},
	}
	for i := 0; i < s.Len(); i += 10 {
		t.AddRow(float64(i)/float64(traces.SamplesPerHour), s.At(i))
	}
	return t, nil
}

// Fig5RawTraffic regenerates Fig. 5 (weekly switch traffic, MB): the
// regular peaks and troughs the Box–Jenkins identification relies on.
func Fig5RawTraffic(seed int64) (*Table, error) {
	s := trafficTrace(seed)
	t := &Table{
		Name:    "Fig. 5",
		Title:   "Raw data of weekly traffic (synthetic, MB)",
		Columns: []string{"day", "traffic_mb"},
		Notes:   []string{traces.Describe("traffic", s)},
	}
	for i := 0; i < s.Len(); i++ {
		t.AddRow(float64(i)/64.0, s.At(i))
	}
	return t, nil
}

// Fig6ARIMA regenerates Fig. 6: ARIMA(1,1,1) trained on the first half of
// the weekly traffic, one-step predictions over the second half, with the
// prediction error series.
func Fig6ARIMA(seed int64) (*Table, error) {
	s := trafficTrace(seed)
	train, test := s.Split(0.5)
	model, err := arima.Fit(train, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 6 fit: %w", err)
	}
	pred, err := model.RollingForecast(train, test)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 6 forecast: %w", err)
	}
	t := &Table{
		Name:    "Fig. 6",
		Title:   "Performance of ARIMA(1,1,1) in predicting the traffic of switch",
		Columns: []string{"time_unit", "original", "predicted", "error"},
	}
	for i := 0; i < test.Len(); i++ {
		t.AddRow(float64(train.Len()+i), test.At(i), pred[i], test.At(i)-pred[i])
	}
	mse, err := timeseries.MSE(test.Raw(), pred)
	if err != nil {
		return nil, err
	}
	mape, err := timeseries.MAPE(test.Raw(), pred)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("test MSE = %.4f, MAPE = %.2f%%", mse, mape),
		"50% train / 50% test split, as in the paper")
	return t, nil
}

// Fig7NARNET regenerates Fig. 7: NARNET with 20 hidden units, 70/30
// split, one-step open-loop predictions.
func Fig7NARNET(seed int64) (*Table, error) {
	s := trafficTrace(seed)
	train, test := s.Split(0.7)
	net, err := narnet.Train(train, narnet.Config{Inputs: 16, Hidden: 20, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 7 train: %w", err)
	}
	pred, err := net.RollingForecast(train, test)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 7 forecast: %w", err)
	}
	t := &Table{
		Name:    "Fig. 7",
		Title:   "Performance of neural network model (NARNET, 20 hidden units)",
		Columns: []string{"time_unit", "original", "predicted", "error"},
	}
	for i := 0; i < test.Len(); i++ {
		t.AddRow(float64(train.Len()+i), test.At(i), pred[i], test.At(i)-pred[i])
	}
	mse, err := timeseries.MSE(test.Raw(), pred)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("test MSE = %.4f", mse),
		"70% train / 30% test split, as in the paper")
	return t, nil
}

// Fig8Combined regenerates Fig. 8: the dynamic-selection combined model
// over the same test region as Fig. 7, reporting its MSE against the
// individual models' (the paper: "a smaller minimum square error").
func Fig8Combined(seed int64) (*Table, error) {
	s := trafficTrace(seed)
	train, test := s.Split(0.7)

	am, err := arima.Fit(train, arima.Order{P: 1, D: 1, Q: 1})
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 8 ARIMA fit: %w", err)
	}
	nn, err := narnet.Train(train, narnet.Config{Inputs: 16, Hidden: 20, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 8 NARNET train: %w", err)
	}
	sel, err := predictor.NewSelector(train, predictor.Config{Window: 15},
		predictor.NewCandidate("ARIMA(1,1,1)", am),
		predictor.NewCandidate("NARNET(16,20)", nn))
	if err != nil {
		return nil, err
	}
	combined, winShare, err := sel.Run(test)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig 8 selector: %w", err)
	}

	aPred, err := am.RollingForecast(train, test)
	if err != nil {
		return nil, err
	}
	nPred, err := nn.RollingForecast(train, test)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "Fig. 8",
		Title:   "Performance of combined model in predicting the traffic of switch",
		Columns: []string{"time_unit", "original", "combined", "arima", "narnet", "error"},
	}
	for i := 0; i < test.Len(); i++ {
		t.AddRow(float64(train.Len()+i), test.At(i), combined[i], aPred[i], nPred[i], test.At(i)-combined[i])
	}
	cMSE, err := timeseries.MSE(test.Raw(), combined)
	if err != nil {
		return nil, err
	}
	aMSE, err := timeseries.MSE(test.Raw(), aPred)
	if err != nil {
		return nil, err
	}
	nMSE, err := timeseries.MSE(test.Raw(), nPred)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("MSE: combined = %.4f, ARIMA = %.4f, NARNET = %.4f", cMSE, aMSE, nMSE),
		fmt.Sprintf("selection shares: %v", winShare))
	return t, nil
}

// PredictionMSEs runs the Fig. 8 protocol and returns just the three MSE
// numbers (combined, arima, narnet) for EXPERIMENTS.md and tests.
func PredictionMSEs(seed int64) (combined, arimaMSE, narnetMSE float64, err error) {
	tab, err := Fig8Combined(seed)
	if err != nil {
		return 0, 0, 0, err
	}
	n := len(tab.Rows)
	actual := make([]float64, n)
	comb := make([]float64, n)
	ap := make([]float64, n)
	np := make([]float64, n)
	for i, row := range tab.Rows {
		actual[i], comb[i], ap[i], np[i] = row[1], row[2], row[3], row[4]
	}
	if combined, err = timeseries.MSE(actual, comb); err != nil {
		return 0, 0, 0, err
	}
	if arimaMSE, err = timeseries.MSE(actual, ap); err != nil {
		return 0, 0, 0, err
	}
	if narnetMSE, err = timeseries.MSE(actual, np); err != nil {
		return 0, 0, 0, err
	}
	return combined, arimaMSE, narnetMSE, nil
}
