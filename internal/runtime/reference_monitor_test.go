package runtime

import (
	"fmt"
	"math"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// The seed engine's monitors (reference_test.go): one forecaster per
// profile component and one per ToR queue, each over its full history.
// The sharded engine folds the same Holt recursion in place; these stay
// only as the oracle's parts.

// componentForecaster predicts one workload-profile component from its
// history, appending h forecasts to dst (both ARIMA models and NARNETs
// satisfy this; see predictor.Forecaster).
type componentForecaster interface {
	ForecastFrom(dst []float64, history *timeseries.Series, h int) ([]float64, error)
}

// profilePredictor forecasts a full workload profile one collection
// period (T seconds) ahead by running one forecaster per component over
// its own history, as Sec. IV.A prescribes ("respectively process each
// feature … with prediction models that can best explain it").
type profilePredictor struct {
	cpu, mem, io, trf     componentForecaster
	hCPU, hMem, hIO, hTRF *timeseries.Series
}

// newProfilePredictor builds a predictor from per-component forecasters
// and their shared-length histories.
func newProfilePredictor(cpu, mem, io, trf componentForecaster) *profilePredictor {
	return &profilePredictor{
		cpu: cpu, mem: mem, io: io, trf: trf,
		hCPU: timeseries.New(nil), hMem: timeseries.New(nil),
		hIO: timeseries.New(nil), hTRF: timeseries.New(nil),
	}
}

// Observe appends one measured profile to the component histories.
func (pp *profilePredictor) Observe(p traces.Profile) {
	pp.hCPU.Append(p.CPU)
	pp.hMem.Append(p.Mem)
	pp.hIO.Append(p.IO)
	pp.hTRF.Append(p.TRF)
}

// HistoryLen returns the number of observed profiles.
func (pp *profilePredictor) HistoryLen() int { return pp.hCPU.Len() }

// Predict forecasts the profile one step ahead. Components are clamped
// to [0,1] since the profile is normalized by definition.
func (pp *profilePredictor) Predict() (traces.Profile, error) {
	get := func(f componentForecaster, h *timeseries.Series) (float64, error) {
		fc, err := f.ForecastFrom(nil, h, 1)
		if err != nil {
			return 0, err
		}
		v := fc[0]
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return v, nil
	}
	var p traces.Profile
	var err error
	if p.CPU, err = get(pp.cpu, pp.hCPU); err != nil {
		return p, fmt.Errorf("runtime: CPU forecast: %w", err)
	}
	if p.Mem, err = get(pp.mem, pp.hMem); err != nil {
		return p, fmt.Errorf("runtime: MEM forecast: %w", err)
	}
	if p.IO, err = get(pp.io, pp.hIO); err != nil {
		return p, fmt.Errorf("runtime: IO forecast: %w", err)
	}
	if p.TRF, err = get(pp.trf, pp.hTRF); err != nil {
		return p, fmt.Errorf("runtime: TRF forecast: %w", err)
	}
	return p, nil
}

// Histories returns copies of the four component histories in profile
// order [CPU, MEM, IO, TRF] — the state a snapshot must carry to resume
// prediction without refeeding the whole run.
func (pp *profilePredictor) Histories() [4][]float64 {
	return [4][]float64{pp.hCPU.Values(), pp.hMem.Values(), pp.hIO.Values(), pp.hTRF.Values()}
}

// Check predicts one step ahead and applies the ALERT rule, returning the
// alert (zero Value when not fired).
func (pp *profilePredictor) Check(th alert.Thresholds) (alert.Alert, bool, error) {
	p, err := pp.Predict()
	if err != nil {
		return alert.Alert{}, false, err
	}
	v, fired := alert.Evaluate(p, th)
	return alert.Alert{Kind: alert.FromServer, Value: v}, fired, nil
}

// queueMonitor watches a ToR switch queue length (Sec. IV.A: "each v_i
// also monitors the queue length of the associated ToR switch") and fires
// an alert.FromLocalToR alert when the predicted queue occupancy crosses the
// threshold fraction of the queue limit.
type queueMonitor struct {
	history   *timeseries.Series
	forecast  componentForecaster
	limit     float64
	threshold float64 // fraction of limit
}

// newQueueMonitor builds a queue monitor. threshold is a fraction in
// (0,1]; limit is the queue capacity in the same units as observations.
func newQueueMonitor(f componentForecaster, limit, threshold float64) (*queueMonitor, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("runtime: queue limit must be > 0, got %v", limit)
	}
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("runtime: queue threshold must be in (0,1], got %v", threshold)
	}
	return &queueMonitor{
		history:   timeseries.New(nil),
		forecast:  f,
		limit:     limit,
		threshold: threshold,
	}, nil
}

// Observe appends one queue-length sample.
func (q *queueMonitor) Observe(length float64) { q.history.Append(length) }

// History returns a copy of the observed queue-length samples.
func (q *queueMonitor) History() []float64 { return q.history.Values() }

// Check predicts the next queue length and fires when it exceeds
// threshold×limit. The alert Value is predicted occupancy in [0,1].
func (q *queueMonitor) Check() (alert.Alert, bool, error) {
	fc, err := q.forecast.ForecastFrom(nil, q.history, 1)
	if err != nil {
		return alert.Alert{}, false, fmt.Errorf("runtime: queue forecast: %w", err)
	}
	occ := fc[0] / q.limit
	if occ < 0 {
		occ = 0
	}
	if occ > 1 {
		occ = 1
	}
	if occ > q.threshold {
		return alert.Alert{Kind: alert.FromLocalToR, Value: occ}, true, nil
	}
	return alert.Alert{}, false, nil
}

// naiveForecaster predicts the last observed value.
type naiveForecaster struct{}

func (naiveForecaster) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		out[i] = h.Last()
	}
	return append(dst, out...), nil
}

// trendForecaster extrapolates the last difference.
type trendForecaster struct{}

func (trendForecaster) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	last := h.Last()
	slope := 0.0
	if h.Len() >= 2 {
		slope = last - h.At(h.Len()-2)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = last + slope*float64(i+1)
	}
	return append(dst, out...), nil
}

func TestProfilePredictorObserveAndPredict(t *testing.T) {
	pp := newProfilePredictor(naiveForecaster{}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})
	pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.4, IO: 0.3, TRF: 0.2})
	pp.Observe(traces.Profile{CPU: 0.6, Mem: 0.5, IO: 0.4, TRF: 0.3})
	if pp.HistoryLen() != 2 {
		t.Fatalf("HistoryLen = %d", pp.HistoryLen())
	}
	p, err := pp.Predict()
	if err != nil {
		t.Fatal(err)
	}
	want := traces.Profile{CPU: 0.6, Mem: 0.5, IO: 0.4, TRF: 0.3}
	if p != want {
		t.Fatalf("Predict = %+v, want %+v", p, want)
	}
}

func TestProfilePredictorClampsToUnitRange(t *testing.T) {
	pp := newProfilePredictor(trendForecaster{}, trendForecaster{}, trendForecaster{}, trendForecaster{})
	pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.9, IO: 0.1, TRF: 0.5})
	pp.Observe(traces.Profile{CPU: 0.9, Mem: 0.99, IO: 0.01, TRF: 0.5})
	p, err := pp.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Components() {
		if v < 0 || v > 1 {
			t.Fatalf("prediction out of [0,1]: %+v", p)
		}
	}
}

func TestProfilePredictorCheckFires(t *testing.T) {
	pp := newProfilePredictor(trendForecaster{}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})
	// CPU rising steeply: the trend forecaster projects past the threshold
	// before the measured value itself crosses it — a pre-alert.
	pp.Observe(traces.Profile{CPU: 0.70, Mem: 0.2, IO: 0.2, TRF: 0.2})
	pp.Observe(traces.Profile{CPU: 0.85, Mem: 0.2, IO: 0.2, TRF: 0.2})
	a, fired, err := pp.Check(alert.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("pre-alert should fire on predicted CPU = 1.0")
	}
	if a.Kind != alert.FromServer || a.Value <= 0.9 {
		t.Fatalf("alert = %+v", a)
	}
}

func TestQueueMonitorValidation(t *testing.T) {
	if _, err := newQueueMonitor(naiveForecaster{}, 0, 0.8); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := newQueueMonitor(naiveForecaster{}, 100, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := newQueueMonitor(naiveForecaster{}, 100, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestQueueMonitorFiresOnPredictedCongestion(t *testing.T) {
	qm, err := newQueueMonitor(trendForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(50)
	qm.Observe(70) // trend +20 → predicted 90 > 80
	a, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || a.Kind != alert.FromLocalToR {
		t.Fatalf("alert = %+v fired=%v", a, fired)
	}
	if math.Abs(a.Value-0.9) > 1e-9 {
		t.Fatalf("occupancy = %v, want 0.9", a.Value)
	}
}

func TestQueueMonitorQuietWhenStable(t *testing.T) {
	qm, err := newQueueMonitor(naiveForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(40)
	qm.Observe(42)
	_, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stable queue should not alert")
	}
}

// errorForecaster fails on demand to exercise error propagation.
type errorForecaster struct{ fail bool }

func (e errorForecaster) ForecastFrom(dst []float64, h *timeseries.Series, n int) ([]float64, error) {
	if e.fail {
		return nil, errForecast
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = h.Last()
	}
	return append(dst, out...), nil
}

var errForecast = &forecastError{}

type forecastError struct{}

func (*forecastError) Error() string { return "forecast failed" }

func TestProfilePredictorComponentErrors(t *testing.T) {
	// Each failing component must surface its error with context.
	cases := []struct {
		name string
		pp   *profilePredictor
	}{
		{"CPU", newProfilePredictor(errorForecaster{true}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})},
		{"MEM", newProfilePredictor(naiveForecaster{}, errorForecaster{true}, naiveForecaster{}, naiveForecaster{})},
		{"IO", newProfilePredictor(naiveForecaster{}, naiveForecaster{}, errorForecaster{true}, naiveForecaster{})},
		{"TRF", newProfilePredictor(naiveForecaster{}, naiveForecaster{}, naiveForecaster{}, errorForecaster{true})},
	}
	for _, c := range cases {
		c.pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.5, IO: 0.5, TRF: 0.5})
		if _, err := c.pp.Predict(); err == nil {
			t.Errorf("%s failure not propagated", c.name)
		}
		if _, _, err := c.pp.Check(alert.DefaultThresholds()); err == nil {
			t.Errorf("%s failure not propagated via Check", c.name)
		}
	}
}

func TestQueueMonitorForecastError(t *testing.T) {
	qm, err := newQueueMonitor(errorForecaster{true}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(10)
	if _, _, err := qm.Check(); err == nil {
		t.Fatal("forecast error not propagated")
	}
}

func TestQueueMonitorClampsNegativePrediction(t *testing.T) {
	qm, err := newQueueMonitor(trendForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(50)
	qm.Observe(5) // steep fall: prediction would be negative
	a, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if fired || a.Value != 0 {
		t.Fatalf("negative prediction not clamped: %+v fired=%v", a, fired)
	}
}
